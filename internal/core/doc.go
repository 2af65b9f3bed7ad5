package core

// Computational complexity (Chapter IV §3.4 of the thesis, restated for
// this implementation).
//
// Notation: n activities, ℓ candidate services per activity, p = |P|
// QoS properties, K clusters per property, R repair passes, I
// improvement passes.
//
// Local phase, per activity:
//   - min–max normalization: O(ℓ·p)
//   - K-means per property (Lloyd, bounded iterations T): O(T·K·ℓ) per
//     property, O(p·T·K·ℓ) per activity
//   - grading and sorting: O(ℓ·p + ℓ·log ℓ)
//
// Total local phase: O(n·p·T·K·ℓ) — linear in ℓ, which Fig. VI.5(a)
// confirms empirically. The distributed mode executes the n per-activity
// blocks in parallel on coordinator devices, so its wall-clock local
// phase is the per-device maximum plus one message round trip
// (Fig. VI.12).
//
// Global phase: each level iteration evaluates one aggregated QoS per
// candidate swap. A naive aggregation costs O(n·p) over the task tree;
// the incremental evaluation engine (engine.go) evaluates on the task's
// tree, compiled once per task, and re-folds only the swapped leaf's
// root path, so a probe costs O(d·p) where d is the tree depth —
// O(log n) for balanced trees, n only in the degenerate fully-nested
// case — with zero allocations (prefix arrays are reused in place).
// The initial assignment costs O(n·ℓ) using per-candidate utilities
// cached once per selection (O(n·ℓ·p) up front, amortised over every
// probe), a repair pass scans O(n·ℓ) swaps each with one path re-fold →
// O(R·n·ℓ·d·p) worst case per level, and the improvement pass likewise
// O(I·n·ℓ·d·p). With the default R = 4n and the cumulative level pools
// this bounds the global phase by O(K·n²·ℓ·d·p) in the worst case —
// one n factor better than the naive O(K·n³·ℓ·p) — and the level-wise
// descent terminates at the first feasible level: measured behaviour is
// dominated by the local phase (compare local_ms and global_ms in
// Fig. VI.5(a), and the eval=naive/eval=incremental benchmark split in
// EXPERIMENTS.md).
//
// For contrast, exhaustive selection under global constraints explores
// ℓ^n compositions (NP-hard in general); the branch-and-bound baseline
// prunes with per-activity utility bounds but remains exponential in
// the worst case. QASSA trades exactness for the timeliness pervasive
// environments require, keeping ≥98% of the optimum on the evaluation
// workloads (EXPERIMENTS.md).
