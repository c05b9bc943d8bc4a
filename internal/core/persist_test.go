package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lossyts/internal/compress"
)

func TestSaveLoadGridRoundTrip(t *testing.T) {
	g := quickGrid(t)
	path := filepath.Join(t.TempDir(), "grid.json.gz")
	if err := SaveGrid(g, path); err != nil {
		t.Fatal(err)
	}
	// Clear the memo cache so LoadGrid does real work.
	gridMu.Lock()
	delete(gridCache, g.Opts.key())
	gridMu.Unlock()

	loaded, err := LoadGrid(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Datasets) != len(g.Datasets) {
		t.Fatalf("datasets = %d, want %d", len(loaded.Datasets), len(g.Datasets))
	}
	for name, ds := range g.Datasets {
		lds := loaded.Datasets[name]
		if lds == nil {
			t.Fatalf("missing dataset %s", name)
		}
		if lds.GorillaCR != ds.GorillaCR || lds.SeasonalPeriod != ds.SeasonalPeriod {
			t.Fatalf("%s: metadata mismatch", name)
		}
		if len(lds.Cells) != len(ds.Cells) {
			t.Fatalf("%s: cells %d vs %d", name, len(lds.Cells), len(ds.Cells))
		}
		for i, c := range ds.Cells {
			lc := lds.Cells[i]
			if lc.Method != c.Method || lc.Epsilon != c.Epsilon || lc.CR != c.CR {
				t.Fatalf("%s cell %d mismatch", name, i)
			}
			for m, v := range c.TFE {
				if lc.TFE[m] != v {
					t.Fatalf("%s cell %d TFE[%s] mismatch", name, i, m)
				}
			}
		}
	}
	// The loaded grid is registered in the memo cache: RunGrid returns it.
	again, err := RunGrid(loaded.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if again != loaded {
		t.Fatal("loaded grid should be memoised")
	}
	// And the experiment generators work on a loaded grid.
	if _, err := Table3(loaded); err != nil {
		t.Fatal(err)
	}
	if _, err := Table5(loaded); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure5(loaded, 5); err != nil {
		t.Fatal(err)
	}
}

func TestLoadGridErrors(t *testing.T) {
	if _, err := LoadGrid("/nonexistent/grid.json.gz"); err == nil {
		t.Error("missing file should error")
	}
	// A legacy v1 grid (one gzip-compressed JSON document) and a file that
	// is not gzip at all are both refused, naming the file and the format.
	v1, err := compress.GzipBytes([]byte(`{"Version":1,"Opts":{},"Datasets":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, blob := range map[string][]byte{"v1.json.gz": v1, "bad.gz": []byte("not gzip")} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadGrid(path)
		if err == nil {
			t.Errorf("%s: loaded a file that is not a cell store", name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "legacy v1") {
			t.Errorf("%s: error %q does not name the file and the legacy v1 format", name, msg)
		}
	}
}

func TestSaveGridErrors(t *testing.T) {
	g := quickGrid(t)
	if err := SaveGrid(g, "/nonexistent/dir/grid.json.gz"); err == nil {
		t.Error("unwritable path should error")
	}
}
