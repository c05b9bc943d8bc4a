package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"lossyts/internal/compress"
	"lossyts/internal/core/cellstore"
	"lossyts/internal/forecast"
	"lossyts/internal/stats"
	"lossyts/internal/timeseries"
)

// The results plane persists grids as cell-addressed record stores
// (cellstore journal files): one record per grid cell, one per dataset,
// plus the option set of the last completed run. SaveGrid writes a
// canonical store from scratch; RunGridContext appends to one
// incrementally as checkpoints (Options.Store). Both speak the same
// format, so a checkpoint store from a finished run and a SaveGrid file
// are interchangeable inputs to LoadGrid.

// encodeFloats encodes a float slice with the repo's own lossless Gorilla
// codec — persisted reconstructions cost bits proportional to their
// information, not 20 JSON characters per point. nil round-trips to nil.
func encodeFloats(values []float64) ([]byte, error) {
	if len(values) == 0 {
		return nil, nil
	}
	c, err := (compress.Gorilla{}).Compress(timeseries.New("", 0, 1, values), 0)
	if err != nil {
		return nil, err
	}
	return c.Payload, nil
}

// decodeFloats inverts encodeFloats bit-exactly (Gorilla is lossless).
func decodeFloats(payload []byte) ([]float64, error) {
	if len(payload) == 0 {
		return nil, nil
	}
	c := &compress.Compressed{Method: compress.MethodGorilla, Payload: payload}
	s, err := c.Decompress()
	if err != nil {
		return nil, err
	}
	return s.Values, nil
}

// cellRecord is the persisted form of one grid cell (store schema
// RecordSchema, enforced through the record key). Decompressed is
// Gorilla-encoded; everything else is small and stays JSON.
type cellRecord struct {
	Method       compress.Method
	Epsilon      float64
	CR           float64
	Segments     int
	TE           stats.Metrics
	Decompressed []byte
	ModelMetrics map[string]stats.Metrics
	TFE          map[string]float64
}

// datasetRecord is the persisted per-dataset state shared by all of its
// cells: raw series (Gorilla-encoded), lossless baseline, and the
// raw-data model baselines.
type datasetRecord struct {
	Name           string
	SeasonalPeriod int
	Interval       int64
	RawValues      []byte
	RawTest        []byte
	GorillaCR      float64
	Baselines      map[string]stats.Metrics
}

// optsRecord is the persisted option set of a completed run. Its fields,
// in this order, are the record's wire format. Parallelism,
// ReferenceKernels, Stream, ChunkSize and Store are always written as zero:
// frozen fields kept so the record bytes, and with them every SaveGrid file,
// never change. A true ReferenceKernels can only come from a store written
// before the reference nn kernel mode was removed; LoadGrid refuses it.
type optsRecord struct {
	Scale            float64
	Seed             int64
	Datasets         []string
	Models           []string
	Methods          []compress.Method
	ErrorBounds      []float64
	DeepSeeds        int
	ShallowSeeds     int
	MaxEvalWindows   int
	Parallelism      int
	Forecast         forecast.Config
	ReferenceKernels bool
	Stream           bool
	ChunkSize        int
	Store            string
}

// record converts o into its persisted form, dropping the fields that never
// change results (scheduling, persistence) so the record is the same however
// the grid was computed.
func (o Options) record() optsRecord {
	return optsRecord{
		Scale:          o.Scale,
		Seed:           o.Seed,
		Datasets:       o.Datasets,
		Models:         o.Models,
		Methods:        o.Methods,
		ErrorBounds:    o.ErrorBounds,
		DeepSeeds:      o.DeepSeeds,
		ShallowSeeds:   o.ShallowSeeds,
		MaxEvalWindows: o.MaxEvalWindows,
		Forecast:       o.Forecast,
	}
}

// options converts a decoded record back into the option set it persists.
func (r optsRecord) options() Options {
	return Options{
		Scale:          r.Scale,
		Seed:           r.Seed,
		Datasets:       r.Datasets,
		Models:         r.Models,
		Methods:        r.Methods,
		ErrorBounds:    r.ErrorBounds,
		DeepSeeds:      r.DeepSeeds,
		ShallowSeeds:   r.ShallowSeeds,
		MaxEvalWindows: r.MaxEvalWindows,
		Forecast:       r.Forecast,
	}
}

// marshalRecord renders a record payload: gzip-compressed JSON. Gzip keeps
// the metric maps cheap; the float-heavy fields are already Gorilla bytes
// (JSON base64) before gzip sees them.
func marshalRecord(v any) ([]byte, error) {
	j, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return compress.GzipBytes(j)
}

func unmarshalRecord(payload []byte, v any) error {
	j, err := compress.GunzipBytes(payload)
	if err != nil {
		return err
	}
	return json.Unmarshal(j, v)
}

// marshalCellRecord renders one cell's persisted record bytes. A pure
// function of the cell, so two runs producing bit-identical cells produce
// bit-identical records — the property the merge and resume tests compare.
func marshalCellRecord(c *Cell) ([]byte, error) {
	dec, err := encodeFloats(c.Decompressed)
	if err != nil {
		return nil, err
	}
	return marshalRecord(&cellRecord{
		Method:       c.Method,
		Epsilon:      c.Epsilon,
		CR:           c.CR,
		Segments:     c.Segments,
		TE:           c.TE,
		Decompressed: dec,
		ModelMetrics: c.ModelMetrics,
		TFE:          c.TFE,
	})
}

// marshalDatasetRecord renders a dataset's shared-state record bytes.
func marshalDatasetRecord(ds *DatasetResult) ([]byte, error) {
	raw, err := encodeFloats(ds.RawValues)
	if err != nil {
		return nil, err
	}
	rawTest, err := encodeFloats(ds.RawTest)
	if err != nil {
		return nil, err
	}
	return marshalRecord(&datasetRecord{
		Name:           ds.Name,
		SeasonalPeriod: ds.SeasonalPeriod,
		Interval:       ds.Interval,
		RawValues:      raw,
		RawTest:        rawTest,
		GorillaCR:      ds.GorillaCR,
		Baselines:      ds.Baselines,
	})
}

// cellWorkUnit is one cell checkpoint as a work-plane unit: the canonical
// CellKey plus the record marshalling. The batch path executes it with
// WorkExec.Refresh (the delta planner already decided it must be written).
func cellWorkUnit(o Options, dataset string, c *Cell) WorkUnit {
	return WorkUnit{
		Key:     o.cellRecordKey(dataset, c.Method, c.Epsilon),
		Compute: func(context.Context) ([]byte, error) { return marshalCellRecord(c) },
	}
}

// datasetWorkUnit is a dataset checkpoint as a work-plane unit. It is
// executed before the dataset's cell units so that on resume a present cell
// record always implies an at-least-as-new dataset record.
func datasetWorkUnit(o Options, ds *DatasetResult) WorkUnit {
	return WorkUnit{
		Key:     o.datasetRecordKey(ds.Name),
		Compute: func(context.Context) ([]byte, error) { return marshalDatasetRecord(ds) },
	}
}

// putOptsRecord records the completed option set; LoadGrid assembles the
// grid this run produced.
func putOptsRecord(s *cellstore.Store, o Options) error {
	payload, err := marshalRecord(o.record())
	if err != nil {
		return err
	}
	return s.Put(optsRecordKey, payload)
}

// storedDataset is what the execution layer recovers from a store for one
// dataset: the dataset record (if present) and every requested cell that
// has a record, indexed by address. A nil *storedDataset (dataset never
// checkpointed, or no store at all) behaves as fully absent.
type storedDataset struct {
	name           string
	seasonalPeriod int
	interval       int64
	rawValues      []float64
	rawTest        []float64
	gorillaCR      float64
	baselines      map[string]stats.Metrics
	cells          map[CellAddr]*Cell
}

// loadStoredDataset reads everything the store holds for (opts, name).
// It returns (nil, nil) when the dataset record is absent. Records that
// fail to decode are treated as absent — the run recomputes and
// overwrites them — so a damaged store heals instead of bricking.
func loadStoredDataset(s *cellstore.Store, o Options, name string) (*storedDataset, error) {
	payload, ok := s.Get(o.datasetRecordKey(name))
	if !ok {
		return nil, nil
	}
	var dr datasetRecord
	if err := unmarshalRecord(payload, &dr); err != nil {
		return nil, nil
	}
	raw, err := decodeFloats(dr.RawValues)
	if err != nil {
		return nil, nil
	}
	rawTest, err := decodeFloats(dr.RawTest)
	if err != nil {
		return nil, nil
	}
	sd := &storedDataset{
		name:           name,
		seasonalPeriod: dr.SeasonalPeriod,
		interval:       dr.Interval,
		rawValues:      raw,
		rawTest:        rawTest,
		gorillaCR:      dr.GorillaCR,
		baselines:      dr.Baselines,
		cells:          map[CellAddr]*Cell{},
	}
	if sd.baselines == nil {
		sd.baselines = map[string]stats.Metrics{}
	}
	for _, m := range o.methods() {
		for _, eps := range o.errorBounds() {
			payload, ok := s.Get(o.cellRecordKey(name, m, eps))
			if !ok {
				continue
			}
			var cr cellRecord
			if err := unmarshalRecord(payload, &cr); err != nil {
				continue
			}
			dec, err := decodeFloats(cr.Decompressed)
			if err != nil {
				continue
			}
			c := &Cell{
				Method:       cr.Method,
				Epsilon:      cr.Epsilon,
				CR:           cr.CR,
				Segments:     cr.Segments,
				TE:           cr.TE,
				Decompressed: dec,
				ModelMetrics: cr.ModelMetrics,
				TFE:          cr.TFE,
			}
			if c.ModelMetrics == nil {
				c.ModelMetrics = map[string]stats.Metrics{}
			}
			if c.TFE == nil {
				c.TFE = map[string]float64{}
			}
			sd.cells[CellAddr{m, eps}] = c
		}
	}
	return sd, nil
}

// cell returns the stored cell at (m, eps), nil-receiver safe.
func (sd *storedDataset) cell(m compress.Method, eps float64) *Cell {
	if sd == nil {
		return nil
	}
	return sd.cells[CellAddr{m, eps}]
}

// fillBaselines seeds dst with the stored raw-data baselines, so models
// the delta run does not retrain keep theirs; recomputed models overwrite
// with bit-identical values.
func (sd *storedDataset) fillBaselines(dst map[string]stats.Metrics) {
	if sd == nil {
		return
	}
	for model, m := range sd.baselines {
		dst[model] = m
	}
}

// completeFor reports whether sd already covers the given cells (and every
// requested model), in which case the pipeline can be skipped for them. A
// partition run asks about its owned slice of the dataset; a full run asks
// about the whole grid via complete.
func (sd *storedDataset) completeFor(o Options, addrs []CellAddr) bool {
	if sd == nil {
		return false
	}
	models := o.models()
	for _, model := range models {
		if _, ok := sd.baselines[model]; !ok {
			return false
		}
	}
	for _, a := range addrs {
		c := sd.cells[a]
		if c == nil {
			return false
		}
		for _, model := range models {
			if _, ok := c.ModelMetrics[model]; !ok {
				return false
			}
		}
	}
	return true
}

// complete reports whether sd already covers every requested cell and
// model, in which case the whole dataset pipeline can be skipped.
func (sd *storedDataset) complete(o Options) bool {
	if sd == nil {
		return false
	}
	var addrs []CellAddr
	for _, m := range o.methods() {
		for _, eps := range o.errorBounds() {
			addrs = append(addrs, CellAddr{m, eps})
		}
	}
	return sd.completeFor(o, addrs)
}

// assemble builds the DatasetResult view from stored records, cells in
// the canonical methods × bounds order. Only valid when complete(o).
func (sd *storedDataset) assemble(o Options) *DatasetResult {
	dr := &DatasetResult{
		Name:           sd.name,
		SeasonalPeriod: sd.seasonalPeriod,
		Interval:       sd.interval,
		RawValues:      sd.rawValues,
		RawTest:        sd.rawTest,
		GorillaCR:      sd.gorillaCR,
		Baselines:      sd.baselines,
	}
	for _, m := range o.methods() {
		for _, eps := range o.errorBounds() {
			dr.Cells = append(dr.Cells, sd.cells[CellAddr{m, eps}])
		}
	}
	dr.buildIndex()
	return dr
}

// SaveGrid writes the grid as a canonical cell store: datasets in option
// order, cells in grid order, option set last. The write sequence is a
// pure function of the grid, so two saves of bit-identical grids produce
// bit-identical files — the property the resume tests and the multi-worker
// merge tests compare. Records are executed as the same WorkUnits the
// checkpoint stage uses, so the canonical save and the incremental
// checkpoint path cannot drift apart.
func SaveGrid(g *GridResult, path string) error {
	s, err := cellstore.Create(path)
	if err != nil {
		return err
	}
	defer s.Close()
	exec := NewWorkExec(s)
	ctx := context.Background()
	for _, name := range g.Opts.datasets() {
		ds := g.Datasets[name]
		if ds == nil {
			return fmt.Errorf("core: grid has no dataset %s", name)
		}
		if _, err := exec.Refresh(ctx, datasetWorkUnit(g.Opts, ds)); err != nil {
			return err
		}
		for _, c := range ds.Cells {
			if _, err := exec.Refresh(ctx, cellWorkUnit(g.Opts, name, c)); err != nil {
				return err
			}
		}
	}
	if err := putOptsRecord(s, g.Opts); err != nil {
		return err
	}
	return s.Close()
}

// LoadGrid reads a saved grid — a cell store written by SaveGrid or a
// finished checkpoint store — and registers it in the in-process
// memoisation cache, so subsequent RunGrid calls with the same options
// return it directly. Any other file, such as a grid saved in the removed
// legacy v1 format (one gzip-compressed JSON document), is refused.
func LoadGrid(path string) (*GridResult, error) {
	if !cellstore.IsStore(path) {
		if _, err := os.Stat(path); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: %s is not a grid cell store (grids saved in the removed legacy v1 gzip-JSON format are no longer read; recompute the grid)", path)
	}
	return loadGridStore(path)
}

// loadGridStore assembles a grid from a cell store. The store must hold a
// completed option set (SaveGrid always writes one; RunGridContext writes
// it when the run finishes) and every cell that option set requests. The
// store is opened read-only, so any number of loaders can read a store
// that a single live writer is still appending to.
func loadGridStore(path string) (*GridResult, error) {
	s, err := cellstore.OpenReadOnly(path)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	payload, ok := s.Get(optsRecordKey)
	if !ok {
		return nil, fmt.Errorf("core: %s holds no completed run (it is a checkpoint store of an interrupted grid; re-run with the store to finish it)", path)
	}
	var rec optsRecord
	if err := unmarshalRecord(payload, &rec); err != nil {
		return nil, fmt.Errorf("core: decoding option set of %s: %w", path, err)
	}
	if rec.ReferenceKernels {
		return nil, fmt.Errorf("core: %s was computed with the reference nn kernel mode, which has been removed; recompute the grid without it", path)
	}
	opts := rec.options()
	g := &GridResult{Opts: opts, Datasets: map[string]*DatasetResult{}}
	cells := 0
	for _, name := range opts.datasets() {
		sd, err := loadStoredDataset(s, opts, name)
		if err != nil {
			return nil, err
		}
		if !sd.complete(opts) {
			return nil, fmt.Errorf("core: %s is missing cells of dataset %s (interrupted run; re-run with the store to finish it)", path, name)
		}
		g.Datasets[name] = sd.assemble(opts)
		cells += len(g.Datasets[name].Cells)
	}
	g.Provenance = Provenance{Source: SourceLoaded, StorePath: path, CellsLoaded: cells}
	registerGrid(g)
	return g, nil
}

// registerGrid memoises a loaded grid under its option key.
func registerGrid(g *GridResult) {
	gridMu.Lock()
	gridCache[g.Opts.key()] = g
	gridMu.Unlock()
}

// StoreGridInfo summarises one option set's holdings inside a store.
type StoreGridInfo struct {
	Signature string
	// Datasets maps dataset name to the number of cell records present.
	Datasets map[string]int
}

// StoreInfo is InspectStore's summary of a store file.
type StoreInfo struct {
	Path    string
	Records int
	Size    int64
	// Complete reports whether the store holds a completed run's option
	// set, i.e. whether LoadGrid would even attempt assembly.
	Complete bool
	Grids    []StoreGridInfo
}

// String renders a human-readable multi-line summary.
func (si StoreInfo) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d records, %d bytes", si.Path, si.Records, si.Size)
	if si.Complete {
		b.WriteString(", completed run recorded")
	} else {
		b.WriteString(", no completed run (checkpoints only)")
	}
	b.WriteByte('\n')
	for _, gi := range si.Grids {
		fmt.Fprintf(&b, "  grid %s\n", gi.Signature)
		names := make([]string, 0, len(gi.Datasets))
		for name := range gi.Datasets {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "    %s: %d cells\n", name, gi.Datasets[name])
		}
	}
	return b.String()
}

// InspectStore summarises a store file without decoding record payloads:
// which grid signatures it holds, and how many cell records per dataset.
// Like LoadGrid it opens the store read-only — inspecting a store another
// process is writing never races the writer.
func InspectStore(path string) (StoreInfo, error) {
	s, err := cellstore.OpenReadOnly(path)
	if err != nil {
		return StoreInfo{}, err
	}
	defer s.Close()
	si := StoreInfo{Path: path, Records: s.Len(), Size: s.Size(), Complete: s.Has(optsRecordKey)}
	grids := map[string]StoreGridInfo{}
	var sigs []string
	for _, key := range s.Keys() {
		kind, fields := keyKind(key)
		if kind != "cell" || len(fields) != 5 {
			continue
		}
		sig, dataset := fields[1], fields[2]
		gi, ok := grids[sig]
		if !ok {
			gi = StoreGridInfo{Signature: sig, Datasets: map[string]int{}}
			sigs = append(sigs, sig)
		}
		gi.Datasets[dataset]++
		grids[sig] = gi
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		si.Grids = append(si.Grids, grids[sig])
	}
	return si, nil
}
