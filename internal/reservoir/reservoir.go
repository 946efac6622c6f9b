// Package reservoir maintains the pooled uniform sample at the heart of a
// DPT synopsis (Section 4.2 of the JanusAQP paper), using the
// insertion/deletion-capable variant of reservoir sampling introduced for
// the AQUA system [Gibbons, Matias, Poosala 2002; Vitter 1985].
//
// The sample S targets 2m tuples and maintains the invariant
// m <= |S| <= 2m (whenever the population is large enough):
//
//   - Insert: while |S| < 2m every tuple is admitted; at capacity the new
//     tuple replaces a uniformly random resident with probability |S|/|D|.
//   - Delete: a tuple absent from S only shrinks the population; a sampled
//     tuple is evicted, and when the eviction would drop |S| below m the
//     whole sample is re-drawn (2m fresh uniform tuples) from archival
//     storage via the Resampler.
//
// The DPT's leaf strata are *virtual* partitions of this single pooled
// sample, so the reservoir reports every membership change through the
// returned events, letting the tree keep its per-leaf indexes in sync.
package reservoir

import (
	"math/rand"

	"janusaqp/internal/data"
)

// Resampler draws n uniform random tuples from archival storage (the
// broker's retained log). It may return fewer than n when the population
// is smaller than n.
type Resampler func(n int) []data.Tuple

// Sample is a pooled reservoir sample. Create instances with New.
type Sample struct {
	m          int // lower bound; capacity is 2m
	rng        *rand.Rand
	items      []data.Tuple
	pos        map[int64]int // tuple ID -> slot in items
	population int64
	resample   Resampler

	// Resamples counts full re-draws triggered by deletions, exposed for
	// tests and the experiment harness.
	Resamples int
}

// New returns an empty reservoir with lower bound m (capacity 2m), a
// deterministic random source, and the given archival resampler (which may
// be nil if deletions will never exhaust the sample).
func New(m int, seed int64, resample Resampler) *Sample {
	if m < 1 {
		panic("reservoir: m must be >= 1")
	}
	return &Sample{
		m:        m,
		rng:      rand.New(rand.NewSource(seed)),
		pos:      make(map[int64]int),
		resample: resample,
	}
}

// Init seeds the reservoir with an initial uniform sample and the matching
// population size. items beyond capacity 2m are truncated.
func (s *Sample) Init(items []data.Tuple, population int64) {
	if len(items) > 2*s.m {
		items = items[:2*s.m]
	}
	s.items = append(s.items[:0], items...)
	s.pos = make(map[int64]int, len(items))
	for i, t := range s.items {
		s.pos[t.ID] = i
	}
	s.population = population
}

// Len returns the current sample size |S|.
func (s *Sample) Len() int { return len(s.items) }

// Population returns the tracked database size |D|.
func (s *Sample) Population() int64 { return s.population }

// LowerBound returns m, the minimum sample size before a full re-draw.
func (s *Sample) LowerBound() int { return s.m }

// Contains reports whether the tuple with the given ID is sampled.
func (s *Sample) Contains(id int64) bool {
	_, ok := s.pos[id]
	return ok
}

// Get returns the sampled tuple with the given ID.
func (s *Sample) Get(id int64) (data.Tuple, bool) {
	if i, ok := s.pos[id]; ok {
		return s.items[i], true
	}
	return data.Tuple{}, false
}

// Items returns the live sample. The returned slice is the internal buffer:
// callers must not mutate or retain it across updates.
func (s *Sample) Items() []data.Tuple { return s.items }

// InsertEvent describes the sample-membership effect of an insertion.
type InsertEvent struct {
	// Admitted is true when the inserted tuple joined the sample.
	Admitted bool
	// Evicted holds the tuple displaced to make room, when any.
	Evicted *data.Tuple
}

// Insert processes the insertion of t into the database, growing the
// population and possibly admitting t into the sample.
func (s *Sample) Insert(t data.Tuple) InsertEvent {
	s.population++
	if len(s.items) < 2*s.m {
		s.add(t)
		return InsertEvent{Admitted: true}
	}
	// Admit with probability |S| / |D| (post-insertion population), per the
	// AQUA maintenance rule: this keeps inclusion probabilities uniform.
	if s.rng.Float64() >= float64(len(s.items))/float64(s.population) {
		return InsertEvent{}
	}
	victim := s.rng.Intn(len(s.items))
	evicted := s.items[victim]
	delete(s.pos, evicted.ID)
	s.items[victim] = t
	s.pos[t.ID] = victim
	return InsertEvent{Admitted: true, Evicted: &evicted}
}

// DeleteEvent describes the sample-membership effect of a deletion.
type DeleteEvent struct {
	// Removed is true when the deleted tuple was in the sample.
	Removed bool
	// Resampled is true when the deletion drained the sample to below m and
	// a full re-draw occurred; callers must rebuild any indexes over Items.
	Resampled bool
}

// Delete processes the deletion of the tuple with the given ID from the
// database.
func (s *Sample) Delete(id int64) DeleteEvent {
	if s.population > 0 {
		s.population--
	}
	i, ok := s.pos[id]
	if !ok {
		return DeleteEvent{}
	}
	if len(s.items) > s.m {
		s.removeAt(i)
		return DeleteEvent{Removed: true}
	}
	// |S| == m: removing would break the invariant; re-draw everything.
	// The tuple being deleted is excluded: the archive may not have
	// processed the deletion yet when the resampler runs.
	s.redrawExcluding(id)
	return DeleteEvent{Removed: true, Resampled: true}
}

// ForceResample discards the sample and re-draws 2m tuples from archival
// storage; used by the re-initialization procedure of Section 4.3 (step 4).
func (s *Sample) ForceResample() {
	s.redrawExcluding(-1)
}

func (s *Sample) redrawExcluding(excludeID int64) {
	s.items = s.items[:0]
	s.pos = make(map[int64]int)
	if s.resample == nil {
		return
	}
	want := 2 * s.m
	if int64(want) > s.population {
		want = int(s.population)
	}
	for _, t := range s.resample(want) {
		if t.ID == excludeID {
			continue
		}
		if _, dup := s.pos[t.ID]; dup {
			continue
		}
		s.add(t)
	}
	s.Resamples++
}

func (s *Sample) add(t data.Tuple) {
	s.pos[t.ID] = len(s.items)
	s.items = append(s.items, t)
}

func (s *Sample) removeAt(i int) {
	last := len(s.items) - 1
	delete(s.pos, s.items[i].ID)
	if i != last {
		s.items[i] = s.items[last]
		s.pos[s.items[i].ID] = i
	}
	s.items = s.items[:last]
}
