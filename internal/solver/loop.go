package solver

import (
	"context"
	"fmt"
	"time"

	"repro/internal/par"
)

// Round is one per-round telemetry record emitted by the Loop driver.
// N, M and Dim describe the residual instance entering the round;
// Decided counts the vertices the round colored (into or out of the
// IS); Elapsed is the round's wall time. The JSON shape is the
// ?trace=1 payload of the service's solve endpoint. SBL and KUW carry
// their residual as an edge multiset, so for them M counts residual
// edges with multiplicity: an edge that two rounds shrank onto the same
// vertex set counts twice.
type Round struct {
	Round   int           `json:"round"`
	N       int           `json:"n"`
	M       int           `json:"m"`
	Dim     int           `json:"dim"`
	Decided int           `json:"decided"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// RoundObserver receives one Round record as each round completes.
// Observers run on the solver goroutine and must be cheap; they see
// telemetry only and can never influence results.
type RoundObserver func(Round)

// Tee composes observers, skipping nil ones. It returns nil when both
// are nil, so callers can chain unconditionally.
func Tee(a, b RoundObserver) RoundObserver {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(r Round) {
		a(r)
		b(r)
	}
}

// Loop drives one solver run's outer round loop: the context check at
// the top of every round, the round counter, the MaxRounds/MaxStages
// budget, and the telemetry emission every solver previously
// hand-rolled. The cost accumulator rides along so round bodies charge
// through one handle.
//
// Usage per round:
//
//	for {
//	    ... (optionally lp.Check() before the residual shape is known)
//	    if <terminal> { break }
//	    if err := lp.Begin(n, m, dim); err != nil { return nil, err }
//	    ... round body ...
//	    lp.End(decided)
//	}
//	res.Rounds = lp.Rounds()
type Loop struct {
	// Ctx, if non-nil, is checked by Check and Begin; the loop returns
	// ctx.Err() as soon as the context is done.
	Ctx context.Context
	// Cost is the run's PRAM cost accumulator (may be nil).
	Cost *par.Cost
	// MaxRounds bounds the rounds Begin admits; exceeding it returns
	// LimitErr wrapped with context. Callers default it before
	// constructing the loop, so 0 here means "no rounds allowed".
	MaxRounds int
	// LimitErr is the sentinel wrapped into the budget error.
	LimitErr error
	// Unit names a round in the budget error ("round", "stage").
	Unit string
	// Observer, if non-nil, receives a Round record at every End.
	Observer RoundObserver

	round   int
	cur     Round
	started time.Time
}

// Check is the bare context check, for loops whose residual shape is
// not yet known at the top of the round (KUW runs its filter phase
// first). Begin also checks, so loops that know their shape up front
// never need Check.
func (l *Loop) Check() error {
	if l.Ctx != nil {
		if err := l.Ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Begin opens the next round over a residual instance of n undecided
// vertices, m edges and dimension dim: it checks the context, then the
// round budget, and opens the telemetry record.
func (l *Loop) Begin(n, m, dim int) error {
	if err := l.Check(); err != nil {
		return err
	}
	if l.round >= l.MaxRounds {
		unit := l.Unit
		if unit == "" {
			unit = "round"
		}
		return fmt.Errorf("%w after %d %ss (%d undecided)", l.LimitErr, l.round, unit, n)
	}
	l.cur = Round{Round: l.round, N: n, M: m, Dim: dim}
	if l.Observer != nil {
		l.started = time.Now()
	}
	return nil
}

// Note records the residual edge count and dimension for loops that
// only learn them mid-round (Luby counts live edges in its degree
// pass).
func (l *Loop) Note(m, dim int) {
	l.cur.M = m
	l.cur.Dim = dim
}

// End closes the round opened by Begin with its decided-vertex count,
// emitting the telemetry record and advancing the round counter.
func (l *Loop) End(decided int) {
	if l.Observer != nil {
		l.cur.Decided = decided
		l.cur.Elapsed = time.Since(l.started)
		l.Observer(l.cur)
	}
	l.round++
}

// Rounds returns the number of completed (Begin…End) rounds.
func (l *Loop) Rounds() int { return l.round }
