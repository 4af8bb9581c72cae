package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/mrmpi"
	"repro/internal/spill"
	"repro/internal/vtime"
)

// Resilience configures fault-tolerant plan execution.
type Resilience struct {
	// Store receives the job-boundary checkpoints; a fresh store is used
	// when nil.
	Store *mrmpi.CheckpointStore
	// MaxRounds bounds recovery attempts per rank (default 3).
	MaxRounds int
	// NoRebalance skips the post-restore Rebalance(Block) that evens the
	// per-rank load after survivors adopt dead ranks' fragments.
	NoRebalance bool
	// Replicas is the checkpoint replication factor (default
	// mrmpi.DefaultCheckpointReplicas; clamped to the cluster size).
	Replicas int
}

// RecoveryReport summarizes the failures a resilient execution absorbed.
type RecoveryReport struct {
	// Failed lists the dead ranks, ascending; Survivors the rest.
	Failed    []int
	Survivors []int
	// Rounds is the maximum number of recovery rounds any rank ran.
	Rounds int
	// CheckpointBytes / CheckpointWrites describe the stable-storage cost.
	CheckpointBytes  int64
	CheckpointWrites int64
	// CheckpointFailovers counts restores served by a buddy replica because
	// the primary copy was lost or damaged.
	CheckpointFailovers int64
}

// ownDeath reports whether err is this rank's own crash notice.
func ownDeath(r *cluster.Rank, err error) bool {
	var rf cluster.RankFailedError
	return errors.As(err, &rf) && rf.Rank == r.ID()
}

// ExecuteResilient runs the plan like Execute but under the cluster's fault
// plan, checkpointing each rank's state to stable storage at every job
// boundary and recovering from rank failures: survivors revoke the
// communication epoch, shrink the communicator around the dead, restore the
// last globally committed checkpoint (adopting the dead ranks' fragments in
// rank order, so global entry order is preserved), rebalance the load with
// the Block policy, and re-execute the failed job on fewer ranks.
//
// Partitions are assembled from the survivors only; with an order-canonical
// workflow (e.g. sort + cyclic distribute) they are byte-identical to a
// fault-free run. The returned error is non-nil only for unrecoverable
// failures (program bugs, all ranks dead, MaxRounds exhausted).
func ExecuteResilient(cl *cluster.Cluster, plan *Plan, in Input, res *Resilience) (*Result, *RecoveryReport, error) {
	return ExecuteResilientOpts(cl, plan, in, res, ExecOptions{})
}

// ExecuteResilientOpts is ExecuteResilient with execution options: a memory
// budget applies to the recovery path too — the MapReduce objects rebuilt
// after a failure inherit the same per-rank spill store, so re-execution
// stays inside the budget.
func ExecuteResilientOpts(cl *cluster.Cluster, plan *Plan, in Input, res *Resilience, opts ExecOptions) (*Result, *RecoveryReport, error) {
	if res == nil {
		res = &Resilience{}
	}
	store := res.Store
	if store == nil {
		store = mrmpi.NewCheckpointStore()
	}
	replicas := res.Replicas
	if replicas <= 0 {
		replicas = mrmpi.DefaultCheckpointReplicas
	}
	store.Configure(cl.Size(), replicas)
	if plan := cl.FaultPlan(); plan != nil {
		for _, h := range plan.CheckpointLossHosts() {
			store.LoseHost(h)
		}
	}
	maxRounds := res.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 3
	}

	cl.Reset()
	p := cl.Size()
	locals, err := prepareLocals(plan, in, p)
	if err != nil {
		return nil, nil, err
	}
	root, cleanupRoot, err := spillRoot(opts)
	if err != nil {
		return nil, nil, err
	}
	defer cleanupRoot()

	partsByRank := make([]map[int][]Row, p)
	roundsByRank := make([]int, p)
	jobClocks := make([][]vtime.Duration, len(plan.Jobs))
	for i := range jobClocks {
		jobClocks[i] = make([]vtime.Duration, p)
	}
	jobSentBytes := make([][]int64, len(plan.Jobs))
	jobSentMsgs := make([][]int64, len(plan.Jobs))
	for i := range jobSentBytes {
		jobSentBytes[i] = make([]int64, p)
		jobSentMsgs[i] = make([]int64, p)
	}

	_, err = cl.Run(func(r *cluster.Rank) error {
		st := &execState{
			comm: mpi.NewComm(r),
			plan: plan,
			data: &Dataset{Schema: NewRowSchema(plan.InputSchema), Rows: locals[r.ID()]},
			side: map[string]*Dataset{},
		}
		st.mr = mrmpi.New(st.comm)
		// One spill store serves the rank for the whole body, surviving
		// recovery rounds (a fresh MapReduce re-attaches to it below).
		var rankSpill *spill.Store
		if opts.Spill.MemBudget > 0 {
			sp, err := openRankSpill(cl, r, root, opts)
			if err != nil {
				return err
			}
			defer sp.Close()
			rankSpill = sp
			st.mr.SetSpill(rankSpill, opts.Spill.MemBudget)
		}

		ji := 0         // next job to run; checkpoint k holds state after k jobs
		committed := -1 // deepest checkpoint this rank has barrier-committed
		rounds := 0

		commit := func(stage int) error {
			defer r.Span("core", "ckpt")()
			page := st.snapshotPage()
			r.Charge(mrmpi.CheckpointCost(len(page)))
			store.Save(stage, r.ID(), page)
			if err := st.comm.Barrier(); err != nil {
				return err
			}
			committed = stage
			return nil
		}

		recoverRun := func() error {
			defer r.Span("core", "recover")()
			for {
				if canceled(opts.Cancel) {
					return ErrCanceled
				}
				rounds++
				roundsByRank[r.ID()] = rounds
				if rounds > maxRounds {
					return fmt.Errorf("core: unrecoverable after %d recovery rounds", maxRounds)
				}
				r.SetEpoch(cl.Revoke(r.Epoch()))
				r.PurgeStaleEpochs()
				dead := cl.FailedRanks()
				nc, err := mpi.NewComm(r).Shrink(dead)
				if err != nil {
					return err
				}
				st.comm = nc
				st.mr = mrmpi.New(nc)
				if rankSpill != nil {
					st.mr.SetSpill(rankSpill, opts.Spill.MemBudget)
				}

				// Recovery barrier on the fresh epoch; once it completes every
				// survivor is in recovery and the second purge is final.
				if err := st.comm.Barrier(); err != nil {
					if cluster.IsRankFailure(err) && !ownDeath(r, err) {
						continue
					}
					return err
				}
				r.PurgeStaleEpochs()

				j, err := allreduceInt64(st.comm, int64(committed), func(a, b int64) int64 {
					if b < a {
						return b
					}
					return a
				})
				if err != nil {
					if cluster.IsRankFailure(err) && !ownDeath(r, err) {
						continue
					}
					return err
				}
				if j < 0 {
					j = 0
				}
				store.PruneDead(dead, int(j))
				pre, app := mrmpi.AdoptionLists(st.comm.Group(), dead, r.ID())
				if err := st.restoreFrom(r, store, int(j), pre, app); err != nil {
					return err
				}
				if !res.NoRebalance {
					if err := st.rebalanceAfterRestore(); err != nil {
						if cluster.IsRankFailure(err) && !ownDeath(r, err) {
							continue
						}
						return err
					}
				}
				ji = int(j)
				committed = int(j)
				return nil
			}
		}

		err := commit(0)
		for {
			if err != nil {
				if !cluster.IsRankFailure(err) || ownDeath(r, err) {
					return err
				}
				if rerr := recoverRun(); rerr != nil {
					return rerr
				}
				err = nil
				continue
			}
			if ji >= len(plan.Jobs) {
				break
			}
			if canceled(opts.Cancel) {
				return ErrCanceled
			}
			job := plan.Jobs[ji]
			endJob := r.Span("job", job.JobID())
			r.Charge(JobLaunchOverhead)
			if err = st.runJob(job); err != nil {
				endJob()
				if !cluster.IsRankFailure(err) {
					err = fmt.Errorf("job %s: %w", job.JobID(), err)
				}
				continue
			}
			err = commit(ji + 1)
			endJob()
			if err == nil {
				jobClocks[ji][r.ID()] = r.Clock().Now()
				b, m := r.SentStats()
				jobSentBytes[ji][r.ID()] = b
				jobSentMsgs[ji][r.ID()] = m
				ji++
			}
		}
		partsByRank[r.ID()] = st.partitions
		return nil
	})

	report := &RecoveryReport{
		Failed:              cl.FailedRanks(),
		CheckpointBytes:     store.TotalBytes(),
		CheckpointWrites:    store.Writes(),
		CheckpointFailovers: store.Failovers(),
	}
	failed := map[int]bool{}
	for _, d := range report.Failed {
		failed[d] = true
	}
	for i := 0; i < p; i++ {
		if !failed[i] {
			report.Survivors = append(report.Survivors, i)
		}
		if roundsByRank[i] > report.Rounds {
			report.Rounds = roundsByRank[i]
		}
	}
	if obs := cl.Observer(); obs != nil {
		obs.SetCount("checkpoint_bytes", report.CheckpointBytes)
		obs.SetCount("checkpoint_writes", report.CheckpointWrites)
		obs.SetCount("checkpoint_failovers", report.CheckpointFailovers)
		obs.SetCount("recovery_rounds", int64(report.Rounds))
		obs.SetCount("failed_ranks", int64(len(report.Failed)))
	}
	if err != nil {
		return nil, report, err
	}

	result, err := assembleResult(cl, plan, jobClocks, jobSentBytes, jobSentMsgs, partsByRank)
	return result, report, err
}

// rebalanceAfterRestore evens the per-rank load after orphan adoption with
// the order-preserving Block policy, covering the main dataset and every
// side branch (collectively, in sorted branch order).
func (st *execState) rebalanceAfterRestore() error {
	nd, _, err := Rebalance(st.comm, st.data, Block)
	if err != nil {
		return err
	}
	st.data = nd
	names := make([]string, 0, len(st.side))
	for n := range st.side {
		names = append(names, n)
	}
	// Sorted: the rebalance is a collective, every rank must visit branches
	// in the same order (all ranks hold the same branch names at a job
	// boundary, SPMD).
	sort.Strings(names)
	for _, n := range names {
		nd, _, err := Rebalance(st.comm, st.side[n], Block)
		if err != nil {
			return err
		}
		st.side[n] = nd
	}
	return nil
}
