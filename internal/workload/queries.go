package workload

import (
	"math"
	"math/rand"

	"janusaqp/internal/core"
	"janusaqp/internal/data"
	"janusaqp/internal/geom"
)

// QueryGen produces the random rectangular query workloads of Section 6.1:
// 2000 queries drawn uniformly over the predicate domain, with side lengths
// a uniform fraction of each attribute's extent.
type QueryGen struct {
	rng     *rand.Rand
	extent  geom.Rect
	centers []geom.Point // query centers are drawn from actual data points
	// MinFrac and MaxFrac bound each query side as a fraction of the
	// attribute extent (defaults 0.01 and 0.25).
	MinFrac, MaxFrac float64
}

// NewQueryGen builds a generator over the extent of the given tuples
// projected onto dims (nil dims = all key attributes).
func NewQueryGen(seed int64, tuples []data.Tuple, dims []int) *QueryGen {
	d := dims
	if d == nil {
		d = make([]int, len(tuples[0].Key))
		for i := range d {
			d[i] = i
		}
	}
	min := make(geom.Point, len(d))
	max := make(geom.Point, len(d))
	for j := range d {
		min[j], max[j] = math.Inf(1), math.Inf(-1)
	}
	for _, t := range tuples {
		for j, dim := range d {
			if t.Key[dim] < min[j] {
				min[j] = t.Key[dim]
			}
			if t.Key[dim] > max[j] {
				max[j] = t.Key[dim]
			}
		}
	}
	// Keep a bounded pool of data points to center queries on: centering
	// on the data rather than uniformly on the (possibly heavy-tailed)
	// extent keeps most queries non-empty, matching how range workloads
	// are drawn over real predicates.
	rng := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, 0, 8192)
	stride := len(tuples)/8192 + 1
	for i := 0; i < len(tuples); i += stride {
		centers = append(centers, tuples[i].Project(d))
	}
	return &QueryGen{
		rng:     rng,
		extent:  geom.Rect{Min: min, Max: max},
		centers: centers,
		MinFrac: 0.01,
		MaxFrac: 0.25,
	}
}

// Next draws one random rectangular query for the given aggregate.
func (g *QueryGen) Next(f core.Func) core.Query {
	d := g.extent.Dims()
	min := make(geom.Point, d)
	max := make(geom.Point, d)
	at := g.centers[g.rng.Intn(len(g.centers))]
	for j := 0; j < d; j++ {
		w := g.extent.Extent(j)
		side := (g.MinFrac + g.rng.Float64()*(g.MaxFrac-g.MinFrac)) * w
		// Center near a data point, jittered by up to half the side.
		center := at[j] + (g.rng.Float64()-0.5)*side
		min[j] = center - side/2
		max[j] = center + side/2
	}
	return core.Query{Func: f, AggIndex: -1, Rect: geom.Rect{Min: min, Max: max}}
}

// Workload draws n queries.
func (g *QueryGen) Workload(n int, f core.Func) []core.Query {
	out := make([]core.Query, n)
	for i := range out {
		out[i] = g.Next(f)
	}
	return out
}
