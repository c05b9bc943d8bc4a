package datasets

import "lossyts/internal/timeseries"

// TargetStream serves a dataset's target column as chunks, implementing
// timeseries.Source. It is a chunked view of Load(name, scale, seed).Target():
// the chunks concatenate to exactly the batch target series, and their
// Values alias it, as the Source contract allows.
type TargetStream struct {
	name   string
	period int
	target *timeseries.Series
	src    timeseries.Source
}

// StreamTarget returns a source over the named dataset's target column.
// name, scale and seed have Load's semantics and errors; non-positive
// chunkSize falls back to timeseries.DefaultChunkSize.
func StreamTarget(name string, scale float64, seed int64, chunkSize int) (*TargetStream, error) {
	ds, err := Load(name, scale, seed)
	if err != nil {
		return nil, err
	}
	target := ds.Target()
	return &TargetStream{name: name, period: ds.SeasonalPeriod, target: target, src: target.Chunks(chunkSize)}, nil
}

// Name returns the dataset name.
func (ts *TargetStream) Name() string { return ts.name }

// TargetName returns the target column's name (Load's first column).
func (ts *TargetStream) TargetName() string { return ts.target.Name }

// Len returns the total number of points the stream will produce.
func (ts *TargetStream) Len() int { return ts.target.Len() }

// Start returns the first timestamp (Load's fixed epoch).
func (ts *TargetStream) Start() int64 { return ts.target.Start }

// Interval returns the sampling interval in seconds.
func (ts *TargetStream) Interval() int64 { return ts.target.Interval }

// Period returns the dominant seasonal period in steps.
func (ts *TargetStream) Period() int { return ts.period }

// Next returns the next chunk, a view into the loaded target series.
func (ts *TargetStream) Next() (timeseries.Chunk, bool) { return ts.src.Next() }

// Err reports a stream failure; a view over a loaded series has none.
func (ts *TargetStream) Err() error { return ts.src.Err() }
