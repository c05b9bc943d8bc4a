package cli

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"lossyts/internal/compress"
	"lossyts/internal/timeseries"
)

func TestBindParsesSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Bind(fs)
	err := fs.Parse([]string{
		"-parallelism", "4", "-refkernels",
		"-cpuprofile", "cpu.out", "-memprofile", "mem.out",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Common{Parallelism: 4, RefKernels: true, CPUProfile: "cpu.out", MemProfile: "mem.out"}
	if *c != want {
		t.Fatalf("parsed %+v, want %+v", *c, want)
	}
}

func TestBindProfilingOmitsComputeKnobs(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindProfiling(fs)
	if fs.Lookup("cpuprofile") == nil || fs.Lookup("memprofile") == nil {
		t.Fatal("profiling flags missing")
	}
	if fs.Lookup("parallelism") != nil || fs.Lookup("refkernels") != nil {
		t.Fatal("compute knobs leaked into the profiling subset")
	}
}

func TestSplitList(t *testing.T) {
	cases := map[string][]string{
		"":                 nil,
		" , ,":             nil,
		"ETTm1":            {"ETTm1"},
		"ETTm1, Weather":   {"ETTm1", "Weather"},
		",Solar , ,Wind, ": {"Solar", "Wind"},
	}
	for in, want := range cases {
		if got := SplitList(in); !reflect.DeepEqual(got, want) {
			t.Errorf("SplitList(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestParsePartition(t *testing.T) {
	good := map[string][2]int{ // input -> {index, workers}
		"1/1":   {0, 1},
		"2/3":   {1, 3},
		"3/3":   {2, 3},
		" 2 /4": {1, 4},
	}
	for in, want := range good {
		index, workers, err := ParsePartition(in)
		if err != nil {
			t.Errorf("ParsePartition(%q): %v", in, err)
			continue
		}
		if index != want[0] || workers != want[1] {
			t.Errorf("ParsePartition(%q) = %d, %d, want %d, %d", in, index, workers, want[0], want[1])
		}
	}
	for _, in := range []string{"", "3", "0/3", "4/3", "-1/3", "a/b", "1/0", "1//2"} {
		if _, _, err := ParsePartition(in); err == nil {
			t.Errorf("ParsePartition(%q) accepted", in)
		}
	}
}

// TestGridArgsRoundTrip: the argv a coordinator renders for its workers
// parses back into the identical grid selection — the property that keeps
// worker and coordinator agreeing on cell keys.
func TestGridArgsRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	g := BindGrid(fs)
	if err := fs.Parse([]string{"-scale", "0.07", "-seed", "9", "-datasets", "ETTm1,Wind", "-models", "Arima", "-methods", "PMC,CAMEO,LFZIP"}); err != nil {
		t.Fatal(err)
	}
	fs2 := flag.NewFlagSet("test2", flag.ContinueOnError)
	g2 := BindGrid(fs2)
	if err := fs2.Parse(g.Args()); err != nil {
		t.Fatal(err)
	}
	if *g != *g2 {
		t.Fatalf("round-tripped grid %+v != %+v", *g2, *g)
	}
	c := &Common{Parallelism: 2, RefKernels: true}
	if o1, o2 := g.Options(c), g2.Options(c); !reflect.DeepEqual(o1, o2) {
		t.Fatalf("options differ: %+v vs %+v", o1, o2)
	}
}

func TestGridMethodsFlag(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	g := BindGrid(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	c := &Common{}
	// Default: the paper's fixed lossy grid, untouched.
	if got := g.Options(c).Methods; got != nil {
		t.Fatalf("default -methods must leave Options.Methods nil (paper grid), got %v", got)
	}
	g.Methods = "PMC, LFZIP"
	if got := g.Options(c).Methods; !reflect.DeepEqual(got, []compress.Method{"PMC", "LFZIP"}) {
		t.Fatalf("explicit -methods parsed to %v", got)
	}
	g.Methods = "all"
	if got := g.Options(c).Methods; !reflect.DeepEqual(got, compress.LossyMethods()) {
		t.Fatalf("-methods all = %v, want LossyMethods %v", got, compress.LossyMethods())
	}
}

// extcliCompressor is a minimal external codec registered only by this test
// binary: the regression guard that a registration — with no cli/core/cmd
// edits at all — reaches every flag surface.
type extcliCompressor struct{}

func (extcliCompressor) Method() compress.Method { return "EXTCLI" }
func (extcliCompressor) Compress(s *timeseries.Series, epsilon float64) (*compress.Compressed, error) {
	return compress.PMC{}.Compress(s, epsilon)
}

func init() {
	compress.Register(compress.Registration{
		Method: "EXTCLI",
		Code:   102,
		Lossy:  true,
		New:    func() (compress.Compressor, error) { return extcliCompressor{}, nil },
		Decode: func(body []byte, count int) ([]float64, error) {
			return nil, nil
		},
	})
}

// TestExternalCodecReachesFlagSurfaces: a Lossy registration must show up
// in every registry-derived flag surface — grid "-methods all", the
// monitor sweep default, and the rendered method lists in help text.
func TestExternalCodecReachesFlagSurfaces(t *testing.T) {
	const ext = compress.Method("EXTCLI")
	found := false
	for _, m := range ParseMethods("all") {
		if m == ext {
			found = true
		}
	}
	if !found {
		t.Fatal("-methods all does not include the externally registered codec")
	}
	g := &Grid{Methods: "all"}
	found = false
	for _, m := range g.Options(&Common{}).Methods {
		if m == ext {
			found = true
		}
	}
	if !found {
		t.Fatal("Grid.Options(-methods all) does not include the externally registered codec")
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	mon := BindMonitor(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mon.Methods, string(ext)) {
		t.Fatalf("monitor sweep default %q does not include the externally registered codec", mon.Methods)
	}
	if !strings.Contains(MethodList(compress.Registered()), string(ext)) {
		t.Fatal("rendered method list (cmd help text source) does not include the externally registered codec")
	}
}
