package core

import (
	"fmt"
	"strconv"
	"strings"

	"lossyts/internal/compress"
)

// RecordSchema is the version of the cell/dataset record encoding inside a
// grid store. It participates in every record key, so a schema change
// simply misses old records (forcing a clean recompute) instead of
// misreading them.
const RecordSchema = 2

// CellAddr addresses a cell within one grid: the (method, error bound)
// pair. It is the key of the per-dataset cell index; CellKey extends it
// with everything else that determines the cell's bytes.
type CellAddr struct {
	Method  compress.Method
	Epsilon float64
}

// CellKey canonically identifies one grid cell across processes: the
// dataset, the cell address, and every option that can change the cell's
// bytes (scale, base seed, per-class seed counts, evaluation window cap,
// forecasting config, kernel mode), plus the record schema version. Two
// runs computing the same CellKey are guaranteed — and tested — to produce
// bit-identical cells, which is what makes the result store safe to reuse.
//
// Options deliberately absent: Parallelism and Store change scheduling or
// persistence, never values; Datasets, Models, Methods, and ErrorBounds
// select which cells exist, not what any one cell contains (per-model
// metrics live inside the record, keyed by model name, so a grown Models
// list only appends to a record).
type CellKey struct {
	Schema         int
	Scale          float64
	Seed           int64
	DeepSeeds      int
	ShallowSeeds   int
	MaxEvalWindows int
	// Forecast is the canonical rendering of the forecasting config; a
	// string so CellKey stays comparable and hashable.
	Forecast   string
	RefKernels bool
	Dataset    string
	Addr       CellAddr
}

// CellKey derives the canonical key of one cell from the option set — the
// single place cell identity is defined. The in-process grid memo, the
// per-dataset cell index, and the persistent store all key off renderings
// of this value.
func (o Options) CellKey(dataset string, m compress.Method, eps float64) CellKey {
	return CellKey{
		Schema:         RecordSchema,
		Scale:          o.Scale,
		Seed:           o.Seed,
		DeepSeeds:      o.DeepSeeds,
		ShallowSeeds:   o.ShallowSeeds,
		MaxEvalWindows: o.MaxEvalWindows,
		Forecast:       fmt.Sprintf("%+v", o.Forecast),
		RefKernels:     o.ReferenceKernels,
		Dataset:        dataset,
		Addr:           CellAddr{Method: m, Epsilon: eps},
	}
}

// gridSignature renders the cell-identity fields every cell of a run
// shares — CellKey minus dataset and address — in a stable form. It
// namespaces record keys, so one store file can hold cells from several
// option sets without collisions.
func (o Options) gridSignature() string {
	return fmt.Sprintf("s%d;sc=%s;seed=%d;ds=%d;ss=%d;mw=%d;ref=%t;fc=%+v",
		RecordSchema, formatEps(o.Scale), o.Seed, o.DeepSeeds, o.ShallowSeeds,
		o.MaxEvalWindows, o.ReferenceKernels, o.Forecast)
}

// formatEps renders a float in its shortest round-trippable form, so keys
// built from the same value always match and keys from different values
// never do.
func formatEps(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// String renders the key's stable store form. The layout is
// "cell|<signature>|<dataset>|<method>|<epsilon>"; the signature uses ';'
// separators internally so the '|' fields parse unambiguously.
func (k CellKey) String() string {
	return strings.Join([]string{
		"cell",
		fmt.Sprintf("s%d;sc=%s;seed=%d;ds=%d;ss=%d;mw=%d;ref=%t;fc=%s",
			k.Schema, formatEps(k.Scale), k.Seed, k.DeepSeeds, k.ShallowSeeds,
			k.MaxEvalWindows, k.RefKernels, k.Forecast),
		k.Dataset,
		string(k.Addr.Method),
		formatEps(k.Addr.Epsilon),
	}, "|")
}

// cellRecordKey is the store key of one cell's record.
func (o Options) cellRecordKey(dataset string, m compress.Method, eps float64) string {
	return o.CellKey(dataset, m, eps).String()
}

// datasetRecordKey is the store key of a dataset's grid-wide record (raw
// series, lossless baseline, per-model raw-data baselines). It shares the
// cell signature: dataset-level bytes depend on exactly the same options.
func (o Options) datasetRecordKey(dataset string) string {
	return "dataset|" + o.gridSignature() + "|" + dataset
}

// optsRecordKey is the store key of the saved option set; the last run to
// complete against a store owns it, and LoadGrid assembles that run's grid.
const optsRecordKey = "opts"

// claimRecordKey is the advisory claim marker for one cell: a worker writes
// it (with an empty payload) before computing the cell, so peers scanning
// its journal can skip work already underway. Prefixing the full cell key
// keeps claims from different option sets apart, exactly like cell records.
func (o Options) claimRecordKey(dataset string, m compress.Method, eps float64) string {
	return "claim|" + o.cellRecordKey(dataset, m, eps)
}

// workersRecordKey stamps a merged store with how many worker journals fed
// it, so a later load can report merged provenance. Like claims, it is
// bookkeeping, not grid data: loaders skip it and SaveGrid never emits it.
const workersRecordKey = "workers"

// keyKindClaim and keyKindWorkers classify the bookkeeping keys above.
const (
	keyKindClaim   = "claim"
	keyKindWorkers = workersRecordKey
)

// keyKind classifies a store key by its leading field ("cell", "dataset",
// "opts", "claim", "workers", or "" for foreign keys) and returns the
// '|'-separated fields.
func keyKind(key string) (kind string, fields []string) {
	fields = strings.Split(key, "|")
	switch fields[0] {
	case "cell", "dataset", optsRecordKey, keyKindClaim, keyKindWorkers:
		return fields[0], fields
	}
	return "", fields
}
