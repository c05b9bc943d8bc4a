package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lossyts/internal/compress"
	"lossyts/internal/core/cellstore"
)

// storeTestOptions is the small grid the result-store tests share: one
// dataset, a shallow model with two seeds and a deep model with one (so
// merge order must survive delta runs), three methods, two bounds.
func storeTestOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.015
	o.Datasets = []string{"ETTm1"}
	o.Models = []string{"Arima", "DLinear"}
	o.ErrorBounds = []float64{0.05, 0.2}
	o.ShallowSeeds = 2
	o.DeepSeeds = 1
	o.Forecast.Epochs = 4
	o.Forecast.MaxTrainWindows = 64
	return o
}

// saveBytes saves g to a temp file and returns the file's bytes.
func saveBytes(t *testing.T, g *GridResult) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grid.cells")
	if err := SaveGrid(g, path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestStoreResumeBitIdentical is the resume contract end to end: a run
// killed partway through (simulated by truncating its checkpoint store at
// an arbitrary byte, exactly what SIGKILL mid-append leaves) and then
// resumed produces a grid whose persisted bytes equal a one-shot run's —
// at Parallelism 1 and at NumCPU.
func TestStoreResumeBitIdentical(t *testing.T) {
	swapGridCache(t)
	dir := t.TempDir()

	// One-shot reference run, fully checkpointed.
	full := storeTestOptions()
	full.Parallelism = 1
	full.Store = filepath.Join(dir, "full.cells")
	gFull, err := RunGrid(full)
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, gFull)
	if p := gFull.Provenance; p.Source != SourceComputed || p.CellsComputed != 6 || p.CellsLoaded != 0 {
		t.Fatalf("one-shot provenance = %+v", p)
	}
	if p := gFull.Provenance; p.StorePath != full.Store {
		t.Fatalf("StorePath = %q, want %q", p.StorePath, full.Store)
	}
	journal, err := os.ReadFile(full.Store)
	if err != nil {
		t.Fatal(err)
	}

	for name, parallelism := range map[string]int{"sequential": 1, "numcpu": runtime.NumCPU()} {
		t.Run(name, func(t *testing.T) {
			// Kill simulation: keep an arbitrary prefix of the journal.
			// cellstore.Open recovers the valid records before the cut.
			killed := filepath.Join(t.TempDir(), "killed.cells")
			if err := os.WriteFile(killed, journal[:len(journal)*55/100], 0o644); err != nil {
				t.Fatal(err)
			}
			// The interrupted store records no completed run, so LoadGrid
			// refuses it (resuming is the only way to finish it).
			if _, err := LoadGrid(killed); err == nil {
				t.Fatal("LoadGrid accepted an interrupted checkpoint store")
			}

			ResetGridCache()
			resume := storeTestOptions()
			resume.Parallelism = parallelism
			resume.Store = killed
			gRes, err := RunGrid(resume)
			if err != nil {
				t.Fatal(err)
			}
			if got := saveBytes(t, gRes); !bytes.Equal(got, want) {
				t.Fatal("resumed grid's persisted bytes differ from the one-shot run's")
			}
			if p := gRes.Provenance; p.CellsComputed+p.CellsLoaded != 6 {
				t.Fatalf("resume provenance cells = %+v", p)
			}
			// The finished store now holds a completed run: LoadGrid
			// assembles it, bit-identical to the computed grid.
			ResetGridCache()
			gLoad, err := LoadGrid(killed)
			if err != nil {
				t.Fatal(err)
			}
			if p := gLoad.Provenance; p.Source != SourceLoaded || p.CellsLoaded != 6 {
				t.Fatalf("loaded provenance = %+v", p)
			}
			if got := saveBytes(t, gLoad); !bytes.Equal(got, want) {
				t.Fatal("loaded grid's persisted bytes differ from the one-shot run's")
			}
		})
	}
}

// TestStoreExpansionComputesOnlyDelta grows a stored grid along each axis
// and asserts — via the work counters — that only the missing cells and
// models are computed, and — via persisted bytes — that the result still
// equals a from-scratch run of the grown grid.
func TestStoreExpansionComputesOnlyDelta(t *testing.T) {
	swapGridCache(t)

	// Reference: the grown grid computed from scratch, no store.
	grown := storeTestOptions()
	gWant, err := RunGrid(grown)
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, gWant)
	allUnits := gWant.Timings.Units // 2 Arima seeds + 1 DLinear seed

	t.Run("bounds", func(t *testing.T) {
		store := filepath.Join(t.TempDir(), "bounds.cells")
		base := storeTestOptions()
		base.ErrorBounds = []float64{0.05}
		base.Store = store
		ResetGridCache()
		if _, err := RunGrid(base); err != nil {
			t.Fatal(err)
		}
		ResetGridCache()
		opts := storeTestOptions()
		opts.Store = store
		g, err := RunGrid(opts)
		if err != nil {
			t.Fatal(err)
		}
		// The 3 eps=0.05 cells are reused; the 3 eps=0.2 cells are fresh,
		// so every model retrains but evaluates only the 3 new cells.
		if p := g.Provenance; p.Source != SourceResumed || p.CellsLoaded != 3 || p.CellsComputed != 3 {
			t.Fatalf("provenance = %+v", p)
		}
		if g.Timings.CellEvals != allUnits*3 {
			t.Fatalf("CellEvals = %d, want %d (3 new cells x %d units)",
				g.Timings.CellEvals, allUnits*3, allUnits)
		}
		if got := saveBytes(t, g); !bytes.Equal(got, want) {
			t.Fatal("bounds-grown grid differs from a from-scratch run")
		}
	})

	t.Run("models", func(t *testing.T) {
		store := filepath.Join(t.TempDir(), "models.cells")
		base := storeTestOptions()
		base.Models = []string{"Arima"}
		base.Store = store
		ResetGridCache()
		if _, err := RunGrid(base); err != nil {
			t.Fatal(err)
		}
		ResetGridCache()
		opts := storeTestOptions()
		opts.Store = store
		g, err := RunGrid(opts)
		if err != nil {
			t.Fatal(err)
		}
		// Arima's metrics live inside the stored records: only DLinear's
		// single (model, seed) unit runs, over all six cells.
		if g.Timings.Units != 1 {
			t.Fatalf("Units = %d, want 1 (only the added model trains)", g.Timings.Units)
		}
		if g.Timings.CellEvals != 6 {
			t.Fatalf("CellEvals = %d, want 6", g.Timings.CellEvals)
		}
		if got := saveBytes(t, g); !bytes.Equal(got, want) {
			t.Fatal("model-grown grid differs from a from-scratch run")
		}
	})

	t.Run("datasets", func(t *testing.T) {
		store := filepath.Join(t.TempDir(), "datasets.cells")
		base := storeTestOptions()
		base.Store = store
		ResetGridCache()
		if _, err := RunGrid(base); err != nil {
			t.Fatal(err)
		}
		ResetGridCache()
		opts := storeTestOptions()
		opts.Datasets = []string{"ETTm1", "Weather"}
		opts.Store = store
		g, err := RunGrid(opts)
		if err != nil {
			t.Fatal(err)
		}
		// ETTm1 is complete in the store: its whole pipeline is skipped
		// (no ingest, no training), so only Weather's units run.
		if g.Timings.Units != allUnits {
			t.Fatalf("Units = %d, want %d (only the new dataset trains)", g.Timings.Units, allUnits)
		}
		if p := g.Provenance; p.Source != SourceResumed || p.CellsLoaded != 6 || p.CellsComputed != 6 {
			t.Fatalf("provenance = %+v", p)
		}
		// The reused dataset's cells are the stored ones, bit for bit.
		ResetGridCache()
		gw, err := RunGrid(storeTestOptions())
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range gw.Datasets["ETTm1"].Cells {
			rc := g.Datasets["ETTm1"].Cells[i]
			for m, v := range c.TFE {
				if rc.TFE[m] != v {
					t.Fatalf("cell %d TFE[%s] = %v, want %v", i, m, rc.TFE[m], v)
				}
			}
		}
	})
}

// TestStoreCodecSetExpansion is the codec-growth migration contract: a
// store written under the four historical codecs keeps working when the
// registry grows — re-running with six methods loads every existing cell
// verbatim and computes only the new codecs' cells. This holds without a
// RecordSchema bump because the Methods list is deliberately absent from
// CellKey (methods select which cells exist, never what one contains).
func TestStoreCodecSetExpansion(t *testing.T) {
	swapGridCache(t)
	four := []compress.Method{compress.MethodPMC, compress.MethodSwing,
		compress.MethodSZ, compress.MethodGorilla}
	six := append(append([]compress.Method(nil), four...),
		compress.MethodCAMEO, compress.MethodLFZip)

	// A cell's store key must not depend on the run's method list at all:
	// that is what makes old stores forward-compatible with new codecs.
	oldOpts, newOpts := storeTestOptions(), storeTestOptions()
	oldOpts.Methods, newOpts.Methods = four, six
	for _, m := range four {
		if oldOpts.cellRecordKey("ETTm1", m, 0.05) != newOpts.cellRecordKey("ETTm1", m, 0.05) {
			t.Fatalf("cell key for %s changed when the method list grew", m)
		}
	}

	// Reference: the six-codec grid computed from scratch, no store.
	grown := storeTestOptions()
	grown.Methods = six
	gWant, err := RunGrid(grown)
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, gWant)
	allUnits := gWant.Timings.Units

	store := filepath.Join(t.TempDir(), "codecs.cells")
	base := storeTestOptions()
	base.Methods = four
	base.Store = store
	ResetGridCache()
	gBase, err := RunGrid(base)
	if err != nil {
		t.Fatal(err)
	}
	if p := gBase.Provenance; p.CellsComputed != 8 {
		t.Fatalf("four-codec base provenance = %+v, want 8 computed", p)
	}

	ResetGridCache()
	opts := storeTestOptions()
	opts.Methods = six
	opts.Store = store
	g, err := RunGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The 8 four-codec cells are reused untouched; only the 4 cells of the
	// two new codecs are fresh, so every model retrains but evaluates only
	// those.
	if p := g.Provenance; p.Source != SourceResumed || p.CellsLoaded != 8 || p.CellsComputed != 4 {
		t.Fatalf("provenance = %+v, want resumed with 8 loaded / 4 computed", p)
	}
	if g.Timings.CellEvals != allUnits*4 {
		t.Fatalf("CellEvals = %d, want %d (4 new cells x %d units)",
			g.Timings.CellEvals, allUnits*4, allUnits)
	}
	if got := saveBytes(t, g); !bytes.Equal(got, want) {
		t.Fatal("codec-grown grid differs from a from-scratch six-codec run")
	}
}

// TestStoreCorruptTailGridRecovery: a grid store with a damaged tail (torn
// final record) still resumes to completion and the damaged part is simply
// recomputed.
func TestStoreCorruptTailGridRecovery(t *testing.T) {
	swapGridCache(t)
	store := filepath.Join(t.TempDir(), "corrupt.cells")
	opts := storeTestOptions()
	opts.Store = store
	g1, err := RunGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, g1)

	blob, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-2] ^= 0xff // tear the final record's CRC
	if err := os.WriteFile(store, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	ResetGridCache()
	g2, err := RunGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, g2); !bytes.Equal(got, want) {
		t.Fatal("grid recovered from a corrupt store differs")
	}
}

func TestEncodeDecodeFloats(t *testing.T) {
	cases := [][]float64{
		nil,
		{},
		{0},
		{1.5, -2.25, 3.875, 3.875, 1e-300, -1e300},
		{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)},
	}
	for _, values := range cases {
		enc, err := encodeFloats(values)
		if err != nil {
			t.Fatalf("encode %v: %v", values, err)
		}
		dec, err := decodeFloats(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", values, err)
		}
		if len(values) == 0 {
			if dec != nil || enc != nil {
				t.Fatalf("empty slice should round-trip to nil, got %v / %v", enc, dec)
			}
			continue
		}
		if len(dec) != len(values) {
			t.Fatalf("length %d, want %d", len(dec), len(values))
		}
		for i := range values {
			// Bit-level comparison so NaN and -0 count as preserved.
			if math.Float64bits(dec[i]) != math.Float64bits(values[i]) {
				t.Fatalf("value %d: %v != %v", i, dec[i], values[i])
			}
		}
	}
}

func TestInspectStore(t *testing.T) {
	swapGridCache(t)
	store := filepath.Join(t.TempDir(), "inspect.cells")
	opts := storeTestOptions()
	opts.Store = store
	if _, err := RunGrid(opts); err != nil {
		t.Fatal(err)
	}
	info, err := InspectStore(store)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Complete {
		t.Fatal("completed run not detected")
	}
	if len(info.Grids) != 1 {
		t.Fatalf("grids = %d, want 1", len(info.Grids))
	}
	if got := info.Grids[0].Datasets["ETTm1"]; got != 6 {
		t.Fatalf("ETTm1 cells = %d, want 6", got)
	}
	if info.String() == "" {
		t.Fatal("empty summary")
	}

	// A store holding only checkpoints (no completed option set) reports
	// incomplete, and LoadGrid explains instead of assembling garbage.
	partial := filepath.Join(t.TempDir(), "partial.cells")
	s, err := cellstore.Open(partial)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(opts.datasetRecordKey("ETTm1"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	pinfo, err := InspectStore(partial)
	if err != nil {
		t.Fatal(err)
	}
	if pinfo.Complete {
		t.Fatal("checkpoint-only store reported complete")
	}
	if _, err := LoadGrid(partial); err == nil {
		t.Fatal("LoadGrid accepted a checkpoint-only store")
	}
}

func TestProvenanceString(t *testing.T) {
	cases := []struct {
		p    Provenance
		want string
	}{
		{Provenance{Source: SourceComputed, CellsComputed: 6}, "grid computed (6 cells)"},
		{Provenance{Source: SourceComputed, CellsComputed: 6, StorePath: "a.cells"},
			"grid computed (6 cells, checkpointed to a.cells)"},
		{Provenance{Source: SourceLoaded, CellsLoaded: 6, StorePath: "a.cells"},
			"grid loaded from a.cells (6 cells; timings are not meaningful for loaded grids)"},
		{Provenance{Source: SourceResumed, CellsLoaded: 4, CellsComputed: 2, StorePath: "a.cells"},
			"grid resumed from a.cells (4 cells loaded, 2 computed; timings cover the computed delta only)"},
		{Provenance{Source: SourceMerged, Workers: 3, CellsLoaded: 12, StorePath: "m.cells"},
			"grid merged from 3 worker journals via m.cells (12 cells loaded, 0 computed this run)"},
	}
	for _, tc := range cases {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}
