package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadSeriesValuesOnly(t *testing.T) {
	path := writeTemp(t, "1.5\n2.5\n\n# comment\n3.5\n")
	s, err := readSeries(path, 60)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Values[2] != 3.5 || s.Interval != 60 {
		t.Fatalf("series = %+v", s)
	}
}

func TestReadSeriesWithTimestamps(t *testing.T) {
	path := writeTemp(t, "100,1\n160,2\n220,3\n")
	s, err := readSeries(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Start != 100 || s.Interval != 60 || s.Len() != 3 {
		t.Fatalf("series = start %d interval %d len %d", s.Start, s.Interval, s.Len())
	}
}

func TestReadSeriesErrors(t *testing.T) {
	cases := map[string]string{
		"irregular":     "100,1\n160,2\n230,3\n",
		"bad value":     "abc\n",
		"bad timestamp": "xx,1\n",
		"too many cols": "1,2,3\n",
		"empty":         "\n",
	}
	for name, content := range cases {
		if _, err := readSeries(writeTemp(t, content), 60); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := readSeries("/nonexistent/file.csv", 60); err == nil {
		t.Error("missing file should error")
	}
}

func TestWriteSeriesRoundTrip(t *testing.T) {
	in := writeTemp(t, "100,1.25\n160,2.5\n")
	s, err := readSeries(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.csv")
	if err := writeSeries(out, s); err != nil {
		t.Fatal(err)
	}
	back, err := readSeries(out, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(back) {
		t.Fatal("write/read round trip mismatch")
	}
}

func TestRunEndToEnd(t *testing.T) {
	var content string
	for i := 0; i < 300; i++ {
		content += "10.5\n10.6\n10.4\n"
	}
	in := writeTemp(t, content)
	out := filepath.Join(t.TempDir(), "rt.csv")
	if err := run("PMC", 0.05, in, out, 60); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal("roundtrip file not written")
	}
	if err := run("NOPE", 0.05, in, "", 60); err == nil {
		t.Error("unknown method should error")
	}
	if err := run("PMC", 0.05, "", "", 60); err == nil {
		t.Error("missing input should error")
	}
}
