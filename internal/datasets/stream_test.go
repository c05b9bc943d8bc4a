package datasets

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"lossyts/internal/timeseries"
)

// datasetGoldenAMD64 is the SHA-256 of Load's target bits for the six paper
// datasets at scale 0.01, seeds 1 and 7 (Names order, then seed order), each
// value as its IEEE-754 bits, little-endian, as computed on linux/amd64.
// Float arithmetic may differ on other architectures, so the comparison runs
// on amd64 only.
const datasetGoldenAMD64 = "d6bfb00ce0161d129469cdac798a9969c52771820babe85799f3e78f55faea34"

// TestStreamTargetMatchesLoad checks that collecting the streamed chunks
// reproduces Load's target column bit for bit, for the six paper datasets
// and an externally registered one (RegTestSine, registry_test.go), at
// several chunk sizes. On amd64 the paper datasets' target bits must also
// hash to the committed golden, so the generators cannot drift across
// commits.
func TestStreamTargetMatchesLoad(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for di, name := range append(append([]string(nil), Names...), "RegTestSine") {
		for _, seed := range []int64{1, 7} {
			ds, err := Load(name, 0.01, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := ds.Target()
			if di < len(Names) {
				for _, v := range want.Values {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
			for _, chunk := range []int{256, 1000, 0} {
				ts, err := StreamTarget(name, 0.01, seed, chunk)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if ts.Len() != want.Len() || ts.Start() != want.Start || ts.Interval() != want.Interval || ts.TargetName() != want.Name {
					t.Fatalf("%s: stream metadata %d/%d/%d/%q, want %d/%d/%d/%q", name,
						ts.Len(), ts.Start(), ts.Interval(), ts.TargetName(), want.Len(), want.Start, want.Interval, want.Name)
				}
				got, err := timeseries.Collect(name, ts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.Len() != want.Len() {
					t.Fatalf("%s seed=%d chunk=%d: streamed %d values, batch %d", name, seed, chunk, got.Len(), want.Len())
				}
				for i := range want.Values {
					if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
						t.Fatalf("%s seed=%d chunk=%d: value %d streamed %v, batch %v",
							name, seed, chunk, i, got.Values[i], want.Values[i])
					}
				}
			}
		}
	}
	if runtime.GOARCH == "amd64" {
		if got := hex.EncodeToString(h.Sum(nil)); got != datasetGoldenAMD64 {
			t.Fatalf("dataset target bits drifted from the committed golden:\n got  %s\n want %s", got, datasetGoldenAMD64)
		}
	}
}

// TestStreamTargetMetadata checks the accessors against the registry specs.
func TestStreamTargetMetadata(t *testing.T) {
	ts, err := StreamTarget("ElecDem", 0.01, 1, 128)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := SpecOf("ElecDem")
	if ts.Name() != "ElecDem" || ts.TargetName() != "DEMAND" {
		t.Fatalf("names %q/%q", ts.Name(), ts.TargetName())
	}
	if ts.Period() != sp.Period || ts.Interval() != sp.Interval {
		t.Fatalf("period/interval %d/%d", ts.Period(), ts.Interval())
	}
	if ts.Err() != nil {
		t.Fatal(ts.Err())
	}
}

// TestStreamTargetChunkGeometry checks that streamed chunks abut and respect
// the requested size.
func TestStreamTargetChunkGeometry(t *testing.T) {
	ts, err := StreamTarget("Weather", 0.01, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	prevEnd := ts.Start()
	total := 0
	for {
		c, ok := ts.Next()
		if !ok {
			break
		}
		if c.Len() == 0 || c.Len() > 100 {
			t.Fatalf("chunk of %d values", c.Len())
		}
		if c.Start != prevEnd || c.Interval != ts.Interval() {
			t.Fatalf("chunk at %d, want %d", c.Start, prevEnd)
		}
		prevEnd = c.End()
		total += c.Len()
	}
	if total != ts.Len() {
		t.Fatalf("streamed %d of %d values", total, ts.Len())
	}
}

// TestStreamTargetFallback checks that a dataset registered with only a batch
// generator (RegTestSine, registered in registry_test.go) streams at full
// scale and collects to exactly Load's target.
func TestStreamTargetFallback(t *testing.T) {
	ts, err := StreamTarget("RegTestSine", 1, 3, 512)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Load("RegTestSine", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := timeseries.Collect("", ts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want.Target()) {
		t.Fatal("stream of a batch-only registration differs from Load")
	}
}

// TestStreamTargetErrors covers the argument validation.
func TestStreamTargetErrors(t *testing.T) {
	if _, err := StreamTarget("NoSuchDataset", 0.1, 1, 128); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := StreamTarget("ETTm1", 0, 1, 128); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := StreamTarget("ETTm1", 1.5, 1, 128); err == nil {
		t.Error("scale > 1 accepted")
	}
}
