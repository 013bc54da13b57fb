package measure

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

// recorder returns n candidates that append their index to *calls; fail,
// when not nil, is consulted on every call of every candidate.
func recorder(n int, calls *[]int, fail func(i, call int) error) []func() error {
	cands := make([]func() error, n)
	for i := range cands {
		count := 0
		cands[i] = func() error {
			*calls = append(*calls, i)
			count++
			if fail != nil {
				return fail(i, count)
			}
			return nil
		}
	}
	return cands
}

// With a zero minTime every warm-up stops at its first call: the call
// order is the three warm-ups in turn, then the rounds round-robin, each
// candidate's round an untimed lead-in call and its timed one.
func TestCompareInterleavesRounds(t *testing.T) {
	var calls []int
	res, err := Compare(context.Background(), recorder(3, &calls, nil), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2}; !slices.Equal(calls, want) {
		t.Fatalf("call order %v, want %v", calls, want)
	}
	for i, r := range res {
		if r.Err != nil || r.MinNs > r.MedianNs {
			t.Errorf("candidate %d: %+v, want no error and min <= median", i, r)
		}
	}
}

func TestCompareDisqualifiesAFailingCandidate(t *testing.T) {
	boom := errors.New("boom")
	var calls []int
	res, err := Compare(context.Background(), recorder(3, &calls, func(i, call int) error {
		if i == 1 && call == 3 { // its first timed call
			return boom
		}
		return nil
	}), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 0, 0, 1, 1, 2, 2, 0, 0, 2, 2, 0, 0, 2, 2}; !slices.Equal(calls, want) {
		t.Fatalf("call order %v, want %v: the failed candidate is called again", calls, want)
	}
	if !errors.Is(res[1].Err, boom) || res[1].MinNs != 0 {
		t.Errorf("failing candidate: %+v, want its error and no timing", res[1])
	}
	for _, i := range []int{0, 2} {
		if res[i].Err != nil || res[i].MinNs > res[i].MedianNs {
			t.Errorf("candidate %d: %+v, want measured with min <= median", i, res[i])
		}
	}
}

func TestCompareStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls []int
	res, err := Compare(ctx, recorder(3, &calls, func(i, call int) error {
		if i == 0 && call == 2 { // inside the first timed round
			cancel()
		}
		return nil
	}), 5, 0)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Compare = %v, %v; want no results and context.Canceled", res, err)
	}
	if want := []int{0, 1, 2, 0, 0, 1, 1, 2, 2}; !slices.Equal(calls, want) {
		t.Fatalf("call order %v, want %v: a round started after the cancel", calls, want)
	}

	calls = nil
	if _, err := Compare(ctx, recorder(3, &calls, nil), 5, 0); !errors.Is(err, context.Canceled) || len(calls) != 0 {
		t.Fatalf("pre-cancelled Compare = %v after %d calls, want context.Canceled after none", err, len(calls))
	}
}

// A no-op cannot span 50 ms in one call: its warm-up doubles, and every
// timed round makes many calls. Alone, it takes over from no one: no round
// leads with an untimed call.
func TestCompareRepeatsAFastCandidate(t *testing.T) {
	var calls []int
	const rounds = 2
	res, err := Compare(context.Background(), recorder(1, &calls, nil), rounds, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// The warm-up made 1 + 2 + ... + n calls and each round n more.
	var warm, n int
	for n = 1; warm+n+rounds*n != len(calls); n *= 2 {
		if warm += n; warm > len(calls) {
			t.Fatalf("%d calls are no doubling warm-up followed by %d equal rounds", len(calls), rounds)
		}
	}
	if n < 2 {
		t.Fatalf("a no-op made %d call per round", n)
	}
	if r := res[0]; r.Err != nil || r.MinNs > r.MedianNs || r.MinNs <= 0 {
		t.Errorf("no-op: %+v, want min <= median", r)
	}
}
