// Package mdp defines the memory dependence predictor interface the
// out-of-order core drives, the shared set-associative prediction table, and
// the state-of-the-art baseline predictors the paper compares against:
// Store Sets, the NoSQ predictor, MDP-TAGE (and its MDP-TAGE-S variant),
// Store Vectors, and CHT, plus the Ideal and None reference points and the
// unlimited (aliasing-free) study versions of NoSQ and MDP-TAGE.
//
// PHAST itself — the paper's contribution — lives in package core.
package mdp

import "repro/internal/histutil"

// PredKind tells the scheduler how to interpret a prediction.
type PredKind uint8

const (
	// NoDep predicts the load is safe to execute speculatively.
	NoDep PredKind = iota
	// Distance predicts a dependence on the store at the given store
	// distance (0 = the youngest store older than the load).
	Distance
	// StoreSeq predicts a dependence on one specific dynamic store
	// (Store Sets' last-fetched-store mechanism).
	StoreSeq
	// WaitAll makes the load wait for every older store to resolve.
	WaitAll
	// Vector makes the load wait for each older store whose distance bit is
	// set in Mask (Store Vectors).
	Vector
)

// Prediction is the answer a predictor gives for one dispatched load.
type Prediction struct {
	Kind PredKind
	// Dist is the store distance for Kind == Distance.
	Dist int
	// Seq is the dynamic store sequence number for Kind == StoreSeq.
	Seq uint64
	// Mask is the distance bit-vector for Kind == Vector (bit d = wait for
	// the store at distance d).
	Mask uint64

	// Provider identifies the table entry that supplied the prediction so
	// the predictor can audit it at commit (opaque to the pipeline).
	Provider ProviderRef
	// Path is the providing entry of an unlimited (map-backed) predictor
	// (opaque to the pipeline).
	Path *PathEntry
}

// PathEntry is one entry of an unlimited (map-backed, alias-free)
// predictor: the map key it is stored under and its prediction state.
type PathEntry struct {
	Key  string
	Dist int
	Conf int
	U    bool
}

// ProviderRef locates a predicting entry for commit-time auditing.
type ProviderRef struct {
	Valid bool
	Table int
	Set   uint32
	Way   uint8
	Tag   uint32
}

// LoadInfo describes a dispatched load.
type LoadInfo struct {
	PC  uint64
	Seq uint64
	// BranchCount is the decode-time copy of the global divergent-branch
	// counter (the paper's history length register).
	BranchCount uint64
	// StoreCount is the number of stores dispatched before this load; the
	// store at distance d has StoreIndex == StoreCount-1-d.
	StoreCount uint64

	// Oracle information, filled by the pipeline from its exact knowledge of
	// the in-flight stream. Only the Ideal predictor may read these fields.
	OracleDep  bool
	OracleDist int
}

// StoreInfo describes a dispatched or conflicting store.
type StoreInfo struct {
	PC  uint64
	Seq uint64
	// BranchCount is the decode-time divergent-branch counter copy.
	BranchCount uint64
	// StoreIndex is the global allocation index of this store.
	StoreIndex uint64
}

// Outcome is the commit-time audit of a load's prediction.
type Outcome struct {
	// Pred is the prediction the load dispatched with.
	Pred Prediction
	// Violated reports the load was squashed by a memory order violation.
	Violated bool
	// Waited reports the prediction delayed the load's execution.
	Waited bool
	// TrueDep reports the load actually overlapped the store(s) it waited
	// for; Waited && !TrueDep is a false dependence.
	TrueDep bool
	// ActualDep reports some older in-flight store overlapped the load.
	ActualDep bool
	// ActualDist is the distance of the youngest such store (valid when
	// ActualDep).
	ActualDist int
}

// FalsePositive reports whether the outcome is a false dependence.
func (o Outcome) FalsePositive() bool { return o.Waited && !o.TrueDep }

// Predictor is a memory dependence predictor. The pipeline calls, in order:
// Predict at load dispatch (with the decode-time history), StoreDispatch at
// store dispatch, TrainViolation at commit of a squashed load (with the
// commit-time history and the true youngest conflicting store), TrainCommit
// at commit of every load, and StoreCommit at store commit.
type Predictor interface {
	// Name identifies the predictor in experiment output.
	Name() string
	// Bind attaches the predictor to the core's decode-time and commit-time
	// divergent-branch history registers before simulation starts.
	// Predictors register incremental folds on them here.
	Bind(decode, commit *histutil.Reg)
	// Predict returns the dependence decision for a dispatching load.
	Predict(ld LoadInfo, hist *histutil.Reg) Prediction
	// StoreDispatch observes a dispatching store and may return the sequence
	// number of an older store this one must wait for (Store Sets
	// serialisation); 0 means no constraint.
	StoreDispatch(st StoreInfo) uint64
	// StoreCommit observes a committing store.
	StoreCommit(st StoreInfo)
	// TrainViolation learns a true dependence detected at the commit of a
	// squashed load. dist is the store distance of the conflicting store;
	// out carries the (wrong or absent) prediction the load ran with.
	TrainViolation(ld LoadInfo, st StoreInfo, dist int, out Outcome, hist *histutil.Reg)
	// TrainCommit audits a committing, non-squashed load.
	TrainCommit(ld LoadInfo, out Outcome, hist *histutil.Reg)
	// SizeBits returns the storage budget in bits (0 for idealised models).
	SizeBits() int
	// Paths returns how many distinct paths/entries an unlimited predictor
	// tracks (0 for finite predictors).
	Paths() int
	// Accesses returns cumulative table reads and writes (energy model).
	Accesses() (reads, writes uint64)
}

// DistanceOf computes the store distance between a load and an older store
// given their allocation indices (paper §II: number of stores older than the
// load but younger than the conflicting store).
func DistanceOf(ld LoadInfo, st StoreInfo) int {
	return int(ld.StoreCount - 1 - st.StoreIndex)
}

// accessCounter implements the Accesses bookkeeping shared by predictors.
type accessCounter struct {
	reads, writes uint64
}

// Accesses implements the Predictor bookkeeping.
func (a *accessCounter) Accesses() (uint64, uint64) { return a.reads, a.writes }

// noBind provides the no-op Bind for predictors that do not fold history.
type noBind struct{}

// Bind implements Predictor as a no-op.
func (noBind) Bind(decode, commit *histutil.Reg) {}

// noStoreHooks provides no-op store hooks for distance-based predictors
// (only Store Sets constrains stores).
type noStoreHooks struct{}

// StoreDispatch implements Predictor with no store constraints.
func (noStoreHooks) StoreDispatch(st StoreInfo) uint64 { return 0 }

// StoreCommit implements Predictor as a no-op.
func (noStoreHooks) StoreCommit(st StoreInfo) {}

// noPaths provides the zero Paths answer for finite predictors.
type noPaths struct{}

// Paths implements Predictor for finite predictors.
func (noPaths) Paths() int { return 0 }
