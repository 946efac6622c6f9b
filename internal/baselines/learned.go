package baselines

import (
	"fmt"
	"math"

	"janusaqp/internal/core"
	"janusaqp/internal/data"
	"janusaqp/internal/geom"
	"janusaqp/internal/stats"
)

// Learned is the DeepDB stand-in of the evaluation (Section 6.1.3).
//
// DeepDB (Hilprecht et al., VLDB 2020) is a relational sum-product network.
// The property of it the paper's accuracy comparisons rest on is a fixed
// parameter budget, and hence a fixed resolution of the data, whatever the
// data size. The stand-in keeps exactly that and nothing more: a
// density/sum grid of at most cellBudget cells, filled by one pass over a
// training sample.
//
//   - Its resolution, and hence its error floor, does not grow with the
//     data.
//   - Insertions and deletions do not update it (DeepDB's dynamic support
//     is limited; the paper re-trains it at every re-optimization).
//   - It is not an SPN, so its training time says nothing about DeepDB's:
//     the experiments do not report it.
type Learned struct {
	aggIndex int

	dims    int
	bounds  geom.Rect
	perDim  int
	cells   []learnedCell
	trained bool
	scale   float64 // population / training-sample size
}

// cellBudget caps the total number of grid cells.
const cellBudget = 8192

type learnedCell struct {
	count float64
	sum   float64
}

// NewLearned returns an untrained model; call Train before answering.
func NewLearned(dims, aggIndex int) *Learned {
	return &Learned{aggIndex: aggIndex, dims: dims}
}

// Name implements System.
func (l *Learned) Name() string { return "Learned(DeepDB-substitute)" }

// Insert implements System; the model ignores dynamic updates by design.
func (l *Learned) Insert(data.Tuple) {}

// Delete implements System; the model ignores dynamic updates by design.
func (l *Learned) Delete(data.Tuple) {}

// Train fits the model from scratch on the training sample, scaling to the
// given population: one histogram pass over the sample.
func (l *Learned) Train(train []data.Tuple, population int64) {
	if len(train) == 0 {
		l.trained = false
		return
	}
	// Bounding box of the training data.
	min := make(geom.Point, l.dims)
	max := make(geom.Point, l.dims)
	for j := 0; j < l.dims; j++ {
		min[j], max[j] = math.Inf(1), math.Inf(-1)
	}
	for _, t := range train {
		for j := 0; j < l.dims; j++ {
			if t.Key[j] < min[j] {
				min[j] = t.Key[j]
			}
			if t.Key[j] > max[j] {
				max[j] = t.Key[j]
			}
		}
	}
	for j := 0; j < l.dims; j++ {
		if min[j] == max[j] {
			max[j] = min[j] + 1
		}
	}
	l.bounds = geom.Rect{Min: min, Max: max}
	l.perDim = int(math.Floor(math.Pow(cellBudget, 1/float64(l.dims))))
	if l.perDim < 2 {
		l.perDim = 2
	}
	total := 1
	for j := 0; j < l.dims; j++ {
		total *= l.perDim
	}
	l.cells = make([]learnedCell, total)
	l.scale = float64(population) / float64(len(train))
	for _, t := range train {
		c := &l.cells[l.cellOf(t.Key)]
		c.count++
		c.sum += t.Val(l.aggIndex)
	}
	l.trained = true
}

// cellOf maps a point to its flattened cell index, clamping to the grid.
func (l *Learned) cellOf(p geom.Point) int {
	idx := 0
	for j := 0; j < l.dims; j++ {
		w := (l.bounds.Max[j] - l.bounds.Min[j]) / float64(l.perDim)
		k := int((p[j] - l.bounds.Min[j]) / w)
		if k < 0 {
			k = 0
		}
		if k >= l.perDim {
			k = l.perDim - 1
		}
		idx = idx*l.perDim + k
	}
	return idx
}

// cellRect reconstructs the rectangle of a flattened cell index.
func (l *Learned) cellRect(idx int) geom.Rect {
	min := make(geom.Point, l.dims)
	max := make(geom.Point, l.dims)
	for j := l.dims - 1; j >= 0; j-- {
		k := idx % l.perDim
		idx /= l.perDim
		w := (l.bounds.Max[j] - l.bounds.Min[j]) / float64(l.perDim)
		min[j] = l.bounds.Min[j] + float64(k)*w
		max[j] = min[j] + w
	}
	return geom.Rect{Min: min, Max: max}
}

// Answer evaluates the query against the grid, assuming uniformity within
// each cell (the fixed-resolution error source).
func (l *Learned) Answer(q core.Query) (core.Result, error) {
	if !l.trained {
		return core.Result{}, fmt.Errorf("baselines: learned model not trained")
	}
	var cnt, sum float64
	for i, c := range l.cells {
		if c.count == 0 {
			continue
		}
		rect := l.cellRect(i)
		inter, ok := rect.Intersection(q.Rect)
		if !ok {
			continue
		}
		frac := 1.0
		for j := 0; j < l.dims; j++ {
			w := rect.Extent(j)
			if w > 0 {
				frac *= inter.Extent(j) / w
			}
		}
		if frac <= 0 {
			// Degenerate overlap (point predicate): count the shared face
			// proportionally to a single grid step.
			frac = 1e-9
		}
		cnt += frac * c.count
		sum += frac * c.sum
	}
	cnt *= l.scale
	sum *= l.scale
	var est float64
	switch q.Func {
	case core.FuncSum:
		est = sum
	case core.FuncCount:
		est = cnt
	case core.FuncAvg:
		if cnt > 0 {
			est = sum / cnt
		}
	default:
		return core.Result{}, fmt.Errorf("baselines: learned model does not support %v", q.Func)
	}
	// The model offers no statistical guarantee; report a zero-width
	// interval, matching DeepDB's lack of confidence intervals.
	return core.Result{Estimate: est, Interval: stats.Interval{Estimate: est}}, nil
}
