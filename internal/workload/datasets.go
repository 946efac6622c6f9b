// Package workload provides the experimental substrate of the evaluation:
// deterministic synthetic analogues of the paper's three real datasets
// (Section 6.1.1), the random rectangular query workloads of Section 6.1,
// and an indexed exact ground-truth engine.
//
// The real datasets are not redistributable inside this repository, so each
// generator reproduces the statistical shape that drives the experiments:
//
//   - Intel Wireless: time-ordered sensor readings whose light attribute
//     follows a diurnal on/off cycle with bursty noise — highly non-uniform
//     over the time predicate, which is what makes variance-aware
//     partitioning beat uniform sampling.
//   - NYC Taxi: sequential pickup times, heavy-tailed (lognormal) trip
//     distances, drop-off time correlated with distance, and a
//     time-of-day attribute that is nearly uniform.
//   - NASDAQ ETF: per-fund price random walks (open/high/low/close),
//     lognormal volumes spanning several orders of magnitude, and a date
//     attribute cycling across funds.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"janusaqp/internal/data"
	"janusaqp/internal/geom"
)

// Dataset names accepted by Generate.
const (
	IntelWireless = "intel"
	NYCTaxi       = "taxi"
	ETFPrices     = "etf"
)

// Generate produces n tuples of the named dataset with IDs starting at
// startID, deterministically from the seed. Tuples are emitted in their
// natural arrival order (by time attribute) — experiments that need skewed
// arrival (Section 6.8) rely on this ordering.
//
// Key columns are the candidate predicate attributes and Val columns the
// candidate aggregation attributes, in tuple order:
//
//   - intel: key time; vals light, temperature, humidity, voltage.
//   - taxi: key pickupTime, dropoffTime, pickupTimeOfDay; vals
//     tripDistance, fareAmount, passengerCount.
//   - etf: key date, open, high, low, close, volume; vals volume, close.
func Generate(name string, n int, startID, seed int64) ([]data.Tuple, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case IntelWireless:
		return genIntel(rng, n, startID), nil
	case NYCTaxi:
		return genTaxi(rng, n, startID), nil
	case ETFPrices:
		return genETF(rng, n, startID), nil
	}
	return nil, fmt.Errorf("workload: unknown dataset %q", name)
}

// genIntel emits sensor rows at ~30s cadence. Light follows the lab's
// day/night cycle: ~zero at night, a noisy plateau with occasional bursts
// during the day.
func genIntel(rng *rand.Rand, n int, startID int64) []data.Tuple {
	const day = 86400.0
	out := make([]data.Tuple, n)
	for i := range out {
		t := float64(i) * 30
		phase := math.Mod(t, day) / day // 0..1 through the day
		var light float64
		if phase > 0.25 && phase < 0.75 { // daytime
			light = 300 + 200*math.Sin((phase-0.25)*2*math.Pi) + rng.NormFloat64()*40
			if rng.Float64() < 0.02 { // sun glare burst
				light += 600 + rng.Float64()*400
			}
		} else {
			light = math.Abs(rng.NormFloat64()) * 3 // night: near zero
		}
		if light < 0 {
			light = 0
		}
		temp := 19 + 5*math.Sin(2*math.Pi*phase) + rng.NormFloat64()*0.5
		humid := 45 - 10*math.Sin(2*math.Pi*phase) + rng.NormFloat64()*2
		volt := 2.7 - float64(i)/float64(n)*0.4 + rng.NormFloat64()*0.01
		out[i] = data.Tuple{
			ID:   startID + int64(i),
			Key:  geom.Point{t},
			Vals: []float64{light, temp, humid, volt},
		}
	}
	return out
}

// genTaxi emits trips in pickup-time order with ~Poisson arrivals.
func genTaxi(rng *rand.Rand, n int, startID int64) []data.Tuple {
	out := make([]data.Tuple, n)
	pickup := 0.0
	const day = 86400.0
	for i := range out {
		pickup += rng.ExpFloat64() * 12 // mean 12s between trips
		dist := math.Exp(rng.NormFloat64()*0.9 + 0.7)
		if dist > 60 {
			dist = 60 // odometer cap, matches the dataset's cleaning rules
		}
		duration := dist*180 + rng.ExpFloat64()*300 // ~3 min/mile + idle
		dropoff := pickup + duration
		timeOfDay := math.Mod(pickup, day)
		fare := 2.5 + dist*2.5 + rng.NormFloat64()*1.5
		if fare < 2.5 {
			fare = 2.5
		}
		passengers := float64(1 + rng.Intn(5))
		out[i] = data.Tuple{
			ID:   startID + int64(i),
			Key:  geom.Point{pickup, dropoff, timeOfDay},
			Vals: []float64{dist, fare, passengers},
		}
	}
	return out
}

// genETF emits daily bars round-robin across synthetic funds, each fund a
// geometric random walk with its own volatility and volume scale.
func genETF(rng *rand.Rand, n int, startID int64) []data.Tuple {
	const funds = 50
	type fund struct {
		price, vol, volumeScale float64
	}
	fs := make([]fund, funds)
	for i := range fs {
		fs[i] = fund{
			price:       10 + rng.Float64()*200,
			vol:         0.005 + rng.Float64()*0.03,
			volumeScale: math.Exp(rng.NormFloat64()*1.5 + 10),
		}
	}
	out := make([]data.Tuple, n)
	for i := range out {
		f := &fs[i%funds]
		date := float64(i / funds)
		open := f.price
		drift := rng.NormFloat64() * f.vol
		close := open * math.Exp(drift)
		hi := math.Max(open, close) * (1 + math.Abs(rng.NormFloat64())*f.vol)
		lo := math.Min(open, close) * (1 - math.Abs(rng.NormFloat64())*f.vol)
		volume := f.volumeScale * math.Exp(rng.NormFloat64()*0.8)
		f.price = close
		out[i] = data.Tuple{
			ID:   startID + int64(i),
			Key:  geom.Point{date, open, hi, lo, close, volume},
			Vals: []float64{volume, close},
		}
	}
	return out
}
