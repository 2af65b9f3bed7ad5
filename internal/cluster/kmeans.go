// Package cluster provides the K-means clustering substrate of QASSA's
// local selection phase: candidate services are clustered per QoS
// property into ranked quality clusters. Both the general k-dimensional
// algorithm and a fast 1-D specialisation are provided; seeding is
// deterministic given the caller's random source (k-means++ by default,
// with a naive uniform alternative kept for the seeding ablation).
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"qasom/internal/randx"
)

// Seeding selects the initial-centroid strategy.
type Seeding int

// Seeding strategies.
const (
	// SeedPlusPlus is k-means++ (D² sampling): spread initial centroids,
	// better and more stable clusters.
	SeedPlusPlus Seeding = iota + 1
	// SeedUniform picks k distinct points uniformly at random; kept as
	// the ablation baseline.
	SeedUniform
)

// maxIterations bounds Lloyd iterations.
const maxIterations = 50

// Options tune a clustering run.
type Options struct {
	// Seeding selects the initialisation strategy; 0 means SeedPlusPlus.
	Seeding Seeding
	// Rand drives all random choices; nil means a fixed-seed source so
	// results are reproducible by default.
	Rand *rand.Rand
}

func (o Options) withDefaults() Options {
	if o.Seeding == 0 {
		o.Seeding = SeedPlusPlus
	}
	if o.Rand == nil {
		o.Rand = randx.New(1)
	}
	return o
}

// Result is the outcome of a clustering run.
type Result struct {
	// Centroids holds the K cluster centres.
	Centroids [][]float64
	// Assign maps each input point to its cluster index.
	Assign []int
	// Sizes counts the points per cluster.
	Sizes []int
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
}

// K returns the number of clusters.
func (r *Result) K() int { return len(r.Centroids) }

// KMeans clusters points into k groups with Lloyd's algorithm. Points
// must be non-empty and share one dimensionality; when k exceeds the
// number of distinct points the effective k is reduced accordingly (every
// returned cluster is non-empty).
func KMeans(points [][]float64, k int, opts Options) (*Result, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if k <= 0 {
		return nil, fmt.Errorf("cluster: k = %d, must be positive", k)
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, fmt.Errorf("cluster: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has dimension %d, want %d", i, len(p), dim)
		}
		for _, x := range p {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("cluster: point %d contains NaN/Inf", i)
			}
		}
	}
	if d := distinctCount(points); k > d {
		k = d
	}
	o := opts.withDefaults()

	centroids := seed(points, k, o)
	assign := make([]int, len(points))
	sizes := make([]int, k)
	res := &Result{}
	for iter := 0; iter < maxIterations; iter++ {
		res.Iterations = iter + 1
		changed := assignPoints(points, centroids, assign)
		for i := range sizes {
			sizes[i] = 0
		}
		for _, c := range assign {
			sizes[c]++
		}
		repairEmpty(points, centroids, assign, sizes, o.Rand)
		updateCentroids(points, centroids, assign, sizes)
		if !changed && iter > 0 {
			break
		}
	}
	// Final assignment against the last centroids.
	assignPoints(points, centroids, assign)
	for i := range sizes {
		sizes[i] = 0
	}
	for _, c := range assign {
		sizes[c]++
	}
	res.Centroids = centroids
	res.Assign = assign
	res.Sizes = sizes
	res.Inertia = inertia(points, centroids, assign)
	return res, nil
}

// KMeans1D clusters scalar values; it is the hot path of QASSA's local
// phase (one run per QoS property per activity).
func KMeans1D(values []float64, k int, opts Options) (*Result, error) {
	points := make([][]float64, len(values))
	backing := make([]float64, len(values))
	for i, v := range values {
		backing[i] = v
		points[i] = backing[i : i+1 : i+1]
	}
	return KMeans(points, k, opts)
}

// Scratch holds reusable buffers for repeated 1-D clustering runs: the
// pooled selection hot path clusters every QoS property of every
// activity per request, and the per-run maps and slices of the generic
// path dominated its allocation profile. A Scratch is not safe for
// concurrent use; pool one per worker (sync.Pool) and reuse it across
// runs. The zero value is ready to use.
type Scratch struct {
	centroids [][]float64
	centBack  []float64
	assign    []int
	sizes     []int
	dists     []float64
	seen      map[uint64]struct{}
	order     []int
	rankOf    []int
	result    Result
}

// grabInts returns *buf resized to n, reallocating only on growth.
func grabInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// resetSeen returns the scratch's cleared distinctness set.
func (s *Scratch) resetSeen() map[uint64]struct{} {
	if s.seen == nil {
		s.seen = make(map[uint64]struct{}, 64)
	}
	clear(s.seen)
	return s.seen
}

// distinct1D counts distinct values by bit pattern — the same
// distinctness the generic path derives from byte-encoded keys.
func (s *Scratch) distinct1D(values []float64) int {
	seen := s.resetSeen()
	for _, v := range values {
		seen[math.Float64bits(v)] = struct{}{}
	}
	return len(seen)
}

// KMeans1D is the allocation-free twin of the package-level KMeans1D:
// identical validation, seeding, Lloyd iterations and repair — the same
// floating-point operations in the same order, so results are
// bit-identical (TestScratchKMeans1DMatchesGeneric enforces it) — with
// every working buffer drawn from the scratch. The returned Result and
// its Centroids/Assign/Sizes are owned by the scratch and valid only
// until the next call on s.
func (s *Scratch) KMeans1D(values []float64, k int, opts Options) (*Result, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if k <= 0 {
		return nil, fmt.Errorf("cluster: k = %d, must be positive", k)
	}
	for i, x := range values {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("cluster: point %d contains NaN/Inf", i)
		}
	}
	if d := s.distinct1D(values); k > d {
		k = d
	}
	o := opts.withDefaults()

	centroids := s.seed1D(values, k, o)
	assign := grabInts(&s.assign, len(values))
	sizes := grabInts(&s.sizes, k)
	res := &s.result
	*res = Result{}
	for iter := 0; iter < maxIterations; iter++ {
		res.Iterations = iter + 1
		changed := assign1D(values, centroids, assign)
		for i := range sizes {
			sizes[i] = 0
		}
		for _, c := range assign {
			sizes[c]++
		}
		repairEmpty1D(values, centroids, assign, sizes, o.Rand)
		update1D(values, centroids, assign, sizes)
		if !changed && iter > 0 {
			break
		}
	}
	// Final assignment against the last centroids.
	assign1D(values, centroids, assign)
	for i := range sizes {
		sizes[i] = 0
	}
	for _, c := range assign {
		sizes[c]++
	}
	res.Centroids = centroids
	res.Assign = assign
	res.Sizes = sizes
	res.Inertia = inertia1D(values, centroids, assign)
	return res, nil
}

// seed1D mirrors seed for scalar values over scratch-owned centroid
// rows: the same random draws in the same order as the generic path.
func (s *Scratch) seed1D(values []float64, k int, o Options) [][]float64 {
	if cap(s.centBack) < k {
		s.centBack = make([]float64, k)
	}
	s.centBack = s.centBack[:k]
	centroids := s.centroids[:0]
	add := func(v float64) {
		i := len(centroids)
		row := s.centBack[i : i+1 : i+1]
		row[0] = v
		centroids = append(centroids, row)
	}
	switch o.Seeding {
	case SeedUniform:
		perm := o.Rand.Perm(len(values))
		used := s.resetSeen()
		for _, idx := range perm {
			bits := math.Float64bits(values[idx])
			if _, dup := used[bits]; dup {
				continue
			}
			used[bits] = struct{}{}
			add(values[idx])
			if len(centroids) == k {
				break
			}
		}
	default: // SeedPlusPlus
		add(values[o.Rand.Intn(len(values))])
		if cap(s.dists) < len(values) {
			s.dists = make([]float64, len(values))
		}
		dists := s.dists[:len(values)]
		for len(centroids) < k {
			total := 0.0
			for i, v := range values {
				d := math.Inf(1)
				for _, c := range centroids {
					dd := v - c[0]
					d = math.Min(d, dd*dd)
				}
				dists[i] = d
				total += d
			}
			var next int
			if total <= 0 {
				next = o.Rand.Intn(len(values))
			} else {
				target := o.Rand.Float64() * total
				acc := 0.0
				next = len(values) - 1
				for i, d := range dists {
					acc += d
					if acc >= target {
						next = i
						break
					}
				}
			}
			add(values[next])
		}
	}
	s.centroids = centroids
	return centroids
}

// flatK is the largest k assign1D copies the centroids for without
// allocating.
const flatK = 32

// assign1D mirrors assignPoints for scalar values. It copies the
// centroids into a flat local array first, so the point loop reads
// neither the centroid slice headers nor their bounds; the strict < test
// keeps the first index on an equidistant tie, as assignPoints does.
func assign1D(values []float64, centroids [][]float64, assign []int) bool {
	var flat [flatK]float64
	cs := flat[:0]
	if len(centroids) > flatK {
		cs = make([]float64, 0, len(centroids))
	}
	for _, c := range centroids {
		cs = append(cs, c[0])
	}
	changed := false
	for i, v := range values {
		best, bestD := 0, math.Inf(1)
		for c, x := range cs {
			dd := v - x
			if d := dd * dd; d < bestD {
				best, bestD = c, d
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

// repairEmpty1D mirrors repairEmpty for scalar values.
func repairEmpty1D(values []float64, centroids [][]float64, assign []int, sizes []int, rng *rand.Rand) {
	for c, size := range sizes {
		if size > 0 {
			continue
		}
		farIdx, farD := -1, -1.0
		for i, v := range values {
			if sizes[assign[i]] <= 1 {
				continue
			}
			dd := v - centroids[assign[i]][0]
			if d := dd * dd; d > farD {
				farIdx, farD = i, d
			}
		}
		if farIdx < 0 {
			farIdx = rng.Intn(len(values))
			if sizes[assign[farIdx]] <= 1 {
				continue
			}
		}
		sizes[assign[farIdx]]--
		assign[farIdx] = c
		sizes[c]++
		centroids[c][0] = values[farIdx]
	}
}

// update1D mirrors updateCentroids for scalar values.
func update1D(values []float64, centroids [][]float64, assign []int, sizes []int) {
	for c := range centroids {
		if sizes[c] == 0 {
			continue
		}
		centroids[c][0] = 0
	}
	for i, v := range values {
		centroids[assign[i]][0] += v
	}
	for c := range centroids {
		if sizes[c] == 0 {
			continue
		}
		centroids[c][0] /= float64(sizes[c])
	}
}

// inertia1D mirrors inertia for scalar values.
func inertia1D(values []float64, centroids [][]float64, assign []int) float64 {
	total := 0.0
	for i, v := range values {
		d := v - centroids[assign[i]][0]
		total += d * d
	}
	return total
}

// RanksInto is Ranks1D writing each point's quality rank into dst
// (len(dst) must equal len(r.Assign)), using scratch-owned ordering
// buffers. The centroid ordering is a stable sort — identical output to
// RankCentroids1D's sort.SliceStable — via insertion sort (K is tiny).
func (s *Scratch) RanksInto(dst []int, r *Result, higherBetter bool) []int {
	order := grabInts(&s.order, r.K())
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			ca, cb := r.Centroids[order[j-1]][0], r.Centroids[order[j]][0]
			beats := cb > ca
			if !higherBetter {
				beats = cb < ca
			}
			if !beats {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	rankOf := grabInts(&s.rankOf, r.K())
	for rank, cl := range order {
		rankOf[cl] = rank + 1
	}
	for i, cl := range r.Assign {
		dst[i] = rankOf[cl]
	}
	return dst
}

// RankCentroids1D returns cluster indices ordered from best to worst for
// a 1-D clustering, where "best" is the largest centroid when higherBetter
// and the smallest otherwise. The returned slice maps rank → cluster.
func RankCentroids1D(r *Result, higherBetter bool) []int {
	order := make([]int, r.K())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := r.Centroids[order[a]][0], r.Centroids[order[b]][0]
		if higherBetter {
			return ca > cb
		}
		return ca < cb
	})
	return order
}

// Ranks1D returns, for each input point, its cluster's quality rank
// (1 = best) for a 1-D clustering.
func Ranks1D(r *Result, higherBetter bool) []int {
	order := RankCentroids1D(r, higherBetter)
	rankOf := make([]int, r.K())
	for rank, cl := range order {
		rankOf[cl] = rank + 1
	}
	out := make([]int, len(r.Assign))
	for i, cl := range r.Assign {
		out[i] = rankOf[cl]
	}
	return out
}

func distinctCount(points [][]float64) int {
	seen := make(map[string]struct{}, len(points))
	var key []byte
	for _, p := range points {
		key = key[:0]
		for _, x := range p {
			bits := math.Float64bits(x)
			for s := 0; s < 64; s += 8 {
				key = append(key, byte(bits>>s))
			}
		}
		seen[string(key)] = struct{}{}
	}
	return len(seen)
}

func seed(points [][]float64, k int, o Options) [][]float64 {
	centroids := make([][]float64, 0, k)
	switch o.Seeding {
	case SeedUniform:
		perm := o.Rand.Perm(len(points))
		used := make(map[string]struct{}, k)
		for _, idx := range perm {
			key := fmt.Sprint(points[idx])
			if _, dup := used[key]; dup {
				continue
			}
			used[key] = struct{}{}
			centroids = append(centroids, clonePoint(points[idx]))
			if len(centroids) == k {
				break
			}
		}
	default: // SeedPlusPlus
		first := o.Rand.Intn(len(points))
		centroids = append(centroids, clonePoint(points[first]))
		dists := make([]float64, len(points))
		for len(centroids) < k {
			total := 0.0
			for i, p := range points {
				d := math.Inf(1)
				for _, c := range centroids {
					d = math.Min(d, sqDist(p, c))
				}
				dists[i] = d
				total += d
			}
			var next int
			if total <= 0 {
				next = o.Rand.Intn(len(points))
			} else {
				target := o.Rand.Float64() * total
				acc := 0.0
				next = len(points) - 1
				for i, d := range dists {
					acc += d
					if acc >= target {
						next = i
						break
					}
				}
			}
			centroids = append(centroids, clonePoint(points[next]))
		}
	}
	return centroids
}

func assignPoints(points, centroids [][]float64, assign []int) bool {
	changed := false
	for i, p := range points {
		best, bestD := 0, math.Inf(1)
		for c, centroid := range centroids {
			if d := sqDist(p, centroid); d < bestD {
				best, bestD = c, d
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

// repairEmpty re-seeds empty clusters with the point farthest from its
// centroid, preserving the invariant that every cluster is non-empty.
func repairEmpty(points, centroids [][]float64, assign []int, sizes []int, rng *rand.Rand) {
	for c, size := range sizes {
		if size > 0 {
			continue
		}
		farIdx, farD := -1, -1.0
		for i, p := range points {
			if sizes[assign[i]] <= 1 {
				continue
			}
			if d := sqDist(p, centroids[assign[i]]); d > farD {
				farIdx, farD = i, d
			}
		}
		if farIdx < 0 {
			farIdx = rng.Intn(len(points))
			if sizes[assign[farIdx]] <= 1 {
				continue
			}
		}
		sizes[assign[farIdx]]--
		assign[farIdx] = c
		sizes[c]++
		copy(centroids[c], points[farIdx])
	}
}

func updateCentroids(points, centroids [][]float64, assign []int, sizes []int) {
	dim := len(points[0])
	for c := range centroids {
		if sizes[c] == 0 {
			continue
		}
		for d := 0; d < dim; d++ {
			centroids[c][d] = 0
		}
	}
	for i, p := range points {
		c := assign[i]
		for d, x := range p {
			centroids[c][d] += x
		}
	}
	for c := range centroids {
		if sizes[c] == 0 {
			continue
		}
		for d := 0; d < dim; d++ {
			centroids[c][d] /= float64(sizes[c])
		}
	}
}

func inertia(points, centroids [][]float64, assign []int) float64 {
	total := 0.0
	for i, p := range points {
		total += sqDist(p, centroids[assign[i]])
	}
	return total
}

func sqDist(a, b []float64) float64 {
	total := 0.0
	for i := range a {
		d := a[i] - b[i]
		total += d * d
	}
	return total
}

func clonePoint(p []float64) []float64 {
	out := make([]float64, len(p))
	copy(out, p)
	return out
}
