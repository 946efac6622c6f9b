package core

// Extended aggregates (Section 6.6 of the paper notes that "other aggregate
// functions such as STDDEV that can be composed using SUM and CNT would
// also perform well"): VARIANCE and STDDEV are composed from the COUNT,
// SUM, and SUM-of-squares estimators (MergePartials). The Σa² machinery is
// the same the synopsis already maintains for confidence intervals, so no
// extra state is needed. Confidence intervals are not derived for them (the
// composition is a nonlinear function of three estimators); the interval is
// reported with zero width and Outer set so callers can tell the guarantee
// is absent.

const (
	// FuncVariance is VAR_POP(A), composed from SUM/COUNT/SUMSQ estimates.
	FuncVariance Func = 100 + iota
	// FuncStdDev is STDDEV_POP(A).
	FuncStdDev
)

// extendedFuncName returns the SQL name for the composed aggregates.
func extendedFuncName(f Func) (string, bool) {
	switch f {
	case FuncVariance:
		return "VARIANCE", true
	case FuncStdDev:
		return "STDDEV", true
	}
	return "", false
}
