package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"lossyts/internal/core/cellstore"
	"lossyts/internal/nn"
)

// The process layer of the work plane: a partition run is one worker's
// share of a grid, executed against its own journal. N workers each run
// their Partition(N, i) slice (plus, optionally, a steal pass over what
// peers never claimed), then MergeWorkerStores combines the journals into
// one canonical store that a normal run loads exactly as if it had
// computed everything itself. Nothing coordinates the workers beyond the
// filesystem, so "local goroutine", "local process", and "another machine
// on a shared mount" are the same protocol.

// WorkerSummary is a partition run's machine-readable provenance: what the
// worker owned, what it stole, what it actually computed versus found
// already journaled, and how long it took. cmd/gridworker prints it as
// JSON on exit.
type WorkerSummary struct {
	// Partition is the 1-based partition number (matching the CLI's "i/n"
	// syntax); Workers is n.
	Partition int `json:"partition"`
	Workers   int `json:"workers"`
	// OwnedCells is the size of the worker's assigned slice; StolenCells
	// counts cells it additionally took from peers' unclaimed work.
	OwnedCells  int `json:"owned_cells"`
	StolenCells int `json:"stolen_cells"`
	// ComputedCells and LoadedCells count cells evaluated this run versus
	// found already present in the worker's journal (a resumed worker).
	ComputedCells int `json:"computed_cells"`
	LoadedCells   int `json:"loaded_cells"`
	// Datasets lists the datasets the owned slice touches.
	Datasets []string `json:"datasets"`
	// Store is the worker's journal path.
	Store string `json:"store"`
	// WallMS is the end-to-end wall clock in milliseconds.
	WallMS int64 `json:"wall_ms"`
}

// RunGridPartition runs one partition of the grid under a background
// context. See RunPartitionContext.
func RunGridPartition(opts Options, workers, index int, peers []string) (WorkerSummary, error) {
	return RunPartitionContext(context.Background(), opts, workers, index, peers)
}

// RunPartitionContext evaluates partition index of workers (0-based) of the
// grid opts describes, checkpointing every finished cell into the worker's
// journal (Options.Store, required). After its own slice drains, it makes
// one steal pass: any cell of the remaining grid that no peer journal has
// claimed or checkpointed is computed here too, so one dead worker delays
// the grid by a steal pass instead of forever.
//
// A partition run never writes the completed-run opts record (its journal
// is a partial grid by construction) and is never memoised; its output is
// the journal plus the returned summary. Cells are bit-identical to a
// single-process run's (CellKey), which is what makes the later merge safe.
func RunPartitionContext(ctx context.Context, opts Options, workers, index int, peers []string) (WorkerSummary, error) {
	if opts.Store == "" {
		return WorkerSummary{}, fmt.Errorf("core: a partition run needs Options.Store (the worker's journal)")
	}
	if workers < 1 || index < 0 || index >= workers {
		return WorkerSummary{}, fmt.Errorf("core: partition %d of %d out of range", index+1, workers)
	}
	if err := ctx.Err(); err != nil {
		return WorkerSummary{}, err
	}
	// The kernel mode is process-global, exactly as in RunGridContext.
	nn.UseReferenceKernels(opts.ReferenceKernels)

	start := time.Now()
	rc := newRunContext(ctx, opts, DefaultPipeline())
	if err := rc.openStore(); err != nil {
		return WorkerSummary{}, err
	}
	defer rc.store.Close()

	full := opts.NewWorkSet()
	owned := full.Partition(workers, index)
	rc.owned = owned
	if _, err := runDatasets(rc, owned.Datasets()); err != nil {
		return WorkerSummary{}, err
	}

	// Steal pass: one scan of the peers' journals, then compute whatever
	// nobody claimed. Between the scan and our claim a peer may wake up and
	// claim the same cell — that costs a duplicate bit-identical
	// computation, never a wrong merge.
	stolen := 0
	if len(peers) > 0 {
		rest, err := full.Minus(owned).Unclaimed(peers...)
		if err != nil {
			return WorkerSummary{}, err
		}
		if rest.Len() > 0 {
			rc.owned = rest
			if _, err := runDatasets(rc, rest.Datasets()); err != nil {
				return WorkerSummary{}, err
			}
			stolen = rest.Len()
		}
	}

	if err := rc.store.Sync(); err != nil {
		return WorkerSummary{}, err
	}
	return WorkerSummary{
		Partition:     index + 1,
		Workers:       workers,
		OwnedCells:    owned.Len(),
		StolenCells:   stolen,
		ComputedCells: int(rc.acc.cellsComputed.Load()),
		LoadedCells:   int(rc.acc.cellsLoaded.Load()),
		Datasets:      owned.Datasets(),
		Store:         opts.Store,
		WallMS:        time.Since(start).Milliseconds(),
	}, nil
}

// MergeWorkerStores combines per-worker journals into one canonical store
// at dst and stamps it with the worker count for provenance. Any payload
// conflict — two journals holding different bytes for the same key — is an
// error: workers computing the same option set produce bit-identical
// records, so a conflict means the journals came from incompatible runs
// (different option sets sharing a signature is impossible; a differing
// "opts" record from merging two completed stores also lands here).
func MergeWorkerStores(dst string, workers []string) (cellstore.MergeStats, error) {
	st, err := cellstore.Merge(dst, workers...)
	if err != nil {
		return st, err
	}
	if len(st.Conflicts) > 0 {
		return st, fmt.Errorf("core: worker journals disagree on %d record(s) (first: %s); were they run with the same options?",
			len(st.Conflicts), st.Conflicts[0])
	}
	s, err := cellstore.Open(dst)
	if err != nil {
		return st, err
	}
	if err := s.Put(workersRecordKey, []byte(strconv.Itoa(len(workers)))); err != nil {
		s.Close()
		return st, err
	}
	return st, s.Close()
}

// readWorkersStamp reads the MergeWorkerStores provenance stamp (0 when
// the store was never merged or the stamp is malformed).
func readWorkersStamp(s *cellstore.Store) int {
	payload, ok := s.Get(workersRecordKey)
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(string(payload))
	if err != nil || n < 1 {
		return 0
	}
	return n
}
