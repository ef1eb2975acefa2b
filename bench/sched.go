package main

import (
	"math/rand"
	"time"
)

// callSpec is one generated call: when it is due, how long it holds
// once flowing, and which subscriber places it. The program under test
// receives only these values; the seed never reaches it.
type callSpec struct {
	due  time.Duration // offset from the start of the schedule
	hold time.Duration
	sub  int32 // index into the subscriber registry
}

// zipfS is the skew of the subscriber draw: with 20 000 subscribers
// the hottest hundred place about half the calls, so the registry's
// lookup working set has a hot head and a long cold tail.
const zipfS = 1.1

// makeSchedule generates an open-loop call schedule from seed: span of
// arrivals at rate calls per second, hold times uniform within ±25 % of
// meanHold, subscribers drawn Zipf over [0, subscribers).
//
// Inter-arrival gaps are uniform within ±50 % of the mean rather than
// exponential: the benchmark measures the program at a stated load,
// and Poisson bursts would put the generator's own variance (±2 % per
// two-second slice at 1 000 calls/s) into every throughput reading.
func makeSchedule(seed int64, rate float64, span, meanHold time.Duration, subscribers int) []callSpec {
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if subscribers > 1 {
		zipf = rand.NewZipf(rng, zipfS, 1, uint64(subscribers-1))
	}
	gap := float64(time.Second) / rate
	calls := make([]callSpec, 0, int(span.Seconds()*rate)+1)
	at := time.Duration(0)
	for {
		at += time.Duration(gap * (0.5 + rng.Float64()))
		if at >= span {
			return calls
		}
		c := callSpec{due: at, hold: jitterHold(rng, meanHold)}
		if zipf != nil {
			c.sub = int32(zipf.Uint64())
		}
		calls = append(calls, c)
	}
}

// jitterHold draws a hold time uniform within ±25 % of mean.
func jitterHold(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(float64(mean) * (0.75 + 0.5*rng.Float64()))
}

// burstSizes generates the media workload's per-round burst lengths:
// uniform in [mean-mean/4, mean+mean/4], so the pipeline sees bursts
// that straddle its 32-datagram batch size.
func burstSizes(seed int64, mean, rounds int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, rounds)
	for i := range out {
		out[i] = mean - mean/4 + rng.Intn(mean/2+1)
	}
	return out
}
