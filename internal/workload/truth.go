package workload

import (
	"math"

	"janusaqp/internal/core"
	"janusaqp/internal/data"
	"janusaqp/internal/geom"
	"janusaqp/internal/kdindex"
)

// Truth is the exact ground-truth engine of Section 6.1.2: it replays the
// same insert/delete stream as the systems under test and answers every
// query exactly, reflecting all updates up to the query's arrival point.
// It is backed by a dynamic range-aggregate index so that evaluating a
// 2000-query workload does not require a full scan per query.
type Truth struct {
	idx      *kdindex.Tree
	dims     []int
	aggIndex int
}

// NewTruth builds a ground-truth engine over the projection dims (nil =
// identity) aggregating attribute aggIndex.
func NewTruth(keyDims int, dims []int, aggIndex int) *Truth {
	d := keyDims
	if dims != nil {
		d = len(dims)
	}
	return &Truth{idx: kdindex.New(d), dims: dims, aggIndex: aggIndex}
}

func (tr *Truth) project(t data.Tuple) geom.Point {
	if tr.dims == nil {
		return t.Key
	}
	return t.Project(tr.dims)
}

// Insert mirrors an insertion.
func (tr *Truth) Insert(t data.Tuple) {
	tr.idx.Insert(kdindex.Entry{Point: tr.project(t), Val: t.Val(tr.aggIndex), ID: t.ID})
}

// Delete mirrors a deletion.
func (tr *Truth) Delete(id int64) {
	tr.idx.Delete(id)
}

// Len returns the live tuple count.
func (tr *Truth) Len() int {
	return tr.idx.Len()
}

// Answer computes the exact result of the query.
func (tr *Truth) Answer(q core.Query) float64 {
	m := tr.idx.RangeMoments(q.Rect)
	switch q.Func {
	case core.FuncSum:
		return m.Sum
	case core.FuncCount:
		return float64(m.N)
	case core.FuncAvg:
		if m.N == 0 {
			return 0
		}
		return m.Sum / float64(m.N)
	case core.FuncMin, core.FuncMax:
		best := math.Inf(1)
		if q.Func == core.FuncMax {
			best = math.Inf(-1)
		}
		found := false
		tr.idx.Report(q.Rect, func(e kdindex.Entry) bool {
			found = true
			if q.Func == core.FuncMin && e.Val < best {
				best = e.Val
			}
			if q.Func == core.FuncMax && e.Val > best {
				best = e.Val
			}
			return true
		})
		if !found {
			return 0
		}
		return best
	}
	return 0
}
