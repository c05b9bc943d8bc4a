package core

import (
	"path/filepath"
	"strings"
	"testing"

	"lossyts/internal/core/cellstore"
)

// TestStoreKeyText pins the exact store keys of one cell and its dataset
// record. Every store on disk is addressed by these strings, so any change
// to their layout — including dropping the frozen "ref=false" segment left
// by the removed reference-kernel option — silently orphans every existing
// store and must fail here first.
func TestStoreKeyText(t *testing.T) {
	o := DefaultOptions()
	o.Scale = 0.015
	const sig = "s2;sc=0.015;seed=1;ds=1;ss=1;mw=48;ref=false;fc={InputLen:96 Horizon:24 SeasonalPeriod:96 Seed:0 Epochs:8 BatchSize:32 LR:0.001 WeightDecay:0.0001 Patience:3 Dropout:0.05 HiddenSize:32 MaxTrainWindows:256 UpdateEpochs:0}"
	if got, want := o.CellKey("ETTm1", "PMC", 0.05).String(), "cell|"+sig+"|ETTm1|PMC|0.05"; got != want {
		t.Errorf("CellKey.String()\n got  %s\n want %s", got, want)
	}
	if got, want := o.datasetRecordKey("ETTm1"), "dataset|"+sig+"|ETTm1"; got != want {
		t.Errorf("datasetRecordKey\n got  %s\n want %s", got, want)
	}
}

// TestLoadGridRejectsReferenceKernelGrid: a store whose completed-run record
// says it was computed with the removed reference nn kernels must fail with
// an error naming that kernel mode, not the "missing cells" message of an
// interrupted run.
func TestLoadGridRejectsReferenceKernelGrid(t *testing.T) {
	swapGridCache(t)
	path := filepath.Join(t.TempDir(), "ref.cells")
	s, err := cellstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := storeTestOptions().record()
	rec.ReferenceKernels = true
	payload, err := marshalRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(optsRecordKey, payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = LoadGrid(path)
	if err == nil || !strings.Contains(err.Error(), "reference nn kernel") {
		t.Fatalf("LoadGrid = %v, want an error naming the reference nn kernel mode", err)
	}
}
