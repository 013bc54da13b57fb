// Package measure is the one timing protocol every kernel comparison in
// the module uses. A shared host has slow spells that last seconds; a
// comparison that times its candidates one after another charges a spell
// to whichever candidate it overlaps. Compare interleaves instead: after
// each candidate's warm-up, every timed round visits every candidate once,
// so a spell costs all of them a round and the minimum of each survives.
//
// The package imports only the standard library.
package measure

import (
	"context"
	"sort"
	"time"
)

// Result is one candidate's timing in nanoseconds per call over the timed
// rounds. Err is the error the candidate returned; a candidate with an
// error was disqualified at that call and has no timing.
type Result struct {
	MinNs    float64 // the estimator every decision uses: noise only ever inflates a round
	MedianNs float64
	Err      error
}

// Compare times the candidates against each other. Warm-up: each candidate
// in turn doubles its call count, from one, until one round of calls spans
// minTime (plans, pages, caches and clocks settle on the way). Then rounds
// timed rounds run round-robin across the candidates, each candidate
// making its warmed-up number of calls per round. A candidate that takes
// over from another leads its round with one untimed call: the other's
// round left the caches, and the vector units' power state, to it. A
// candidate whose call returns an error is disqualified, carrying that
// error, and the others go on. ctx is checked before every warm-up and
// every timed round; a cancelled ctx ends the comparison with ctx.Err()
// and no results. rounds below one count as one.
func Compare(ctx context.Context, cands []func() error, rounds int, minTime time.Duration) ([]Result, error) {
	res := make([]Result, len(cands))
	calls := make([]int, len(cands))
	for i, fn := range cands {
		for n := 1; ; n *= 2 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			d, err := round(fn, 0, n)
			if err != nil {
				res[i].Err = err
				break
			}
			if d >= minTime {
				calls[i] = n
				break
			}
		}
	}
	ns := make([][]float64, len(cands))
	lead := min(len(cands)-1, 1)
	for r := 0; r < max(rounds, 1); r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, fn := range cands {
			if res[i].Err != nil {
				continue
			}
			d, err := round(fn, lead, calls[i])
			if err != nil {
				res[i].Err = err
				continue
			}
			ns[i] = append(ns[i], float64(d.Nanoseconds())/float64(calls[i]))
		}
	}
	for i, s := range ns {
		if res[i].Err != nil {
			continue
		}
		sort.Float64s(s)
		res[i].MinNs, res[i].MedianNs = s[0], (s[(len(s)-1)/2]+s[len(s)/2])/2
	}
	return res, nil
}

// round times n back-to-back calls of fn after lead untimed ones, stopping
// at the first error.
func round(fn func() error, lead, n int) (time.Duration, error) {
	var start time.Time
	for j := -lead; j < n; j++ {
		if j == 0 {
			start = time.Now()
		}
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
