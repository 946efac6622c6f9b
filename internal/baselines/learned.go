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
//   - It has no update path: only Train changes it (DeepDB's dynamic
//     support is limited; the paper re-trains it at every re-optimization).
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

// Answer evaluates the query against the grid, assuming uniformity within
// each cell (the fixed-resolution error source).
func (l *Learned) Answer(q core.Query) (core.Result, error) {
	if !l.trained {
		return core.Result{}, fmt.Errorf("baselines: learned model not trained")
	}
	cnt, sum := l.addCells(q.Rect, 0, 0, 1, 0, 0)
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

// addCells adds to cnt and sum the cells below index prefix (the steps the
// walk took in dimensions 0..j-1) that meet rect, each pro-rated by its
// overlap: the product, in dimension order, of its steps' overlaps, of
// which frac holds the first j. The walk computes a step's overlap once per
// prefix, descends only into steps that meet rect, and reaches the cells in
// index order, so nothing is allocated and the sums add up in the order a
// pass over every cell would.
func (l *Learned) addCells(rect geom.Rect, j, prefix int, frac, cnt, sum float64) (float64, float64) {
	w := (l.bounds.Max[j] - l.bounds.Min[j]) / float64(l.perDim)
	for k := 0; k < l.perDim; k++ {
		lo := l.bounds.Min[j] + float64(k)*w
		hi := lo + w
		if rect.Max[j] < lo || rect.Min[j] > hi {
			continue
		}
		f := frac
		if ext := hi - lo; ext > 0 {
			f *= (math.Min(hi, rect.Max[j]) - math.Max(lo, rect.Min[j])) / ext
		}
		idx := prefix*l.perDim + k
		if j+1 < l.dims {
			cnt, sum = l.addCells(rect, j+1, idx, f, cnt, sum)
			continue
		}
		c := l.cells[idx]
		if c.count == 0 {
			continue
		}
		if f <= 0 {
			// Degenerate overlap (point predicate): count the shared face
			// proportionally to a single grid step.
			f = 1e-9
		}
		cnt += f * c.count
		sum += f * c.sum
	}
	return cnt, sum
}
