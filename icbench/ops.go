package main

import (
	"fmt"
	"time"
)

// opKind names the operations a workload performs on the program.
type opKind int

const (
	opRegister opKind = iota // topology or prior registration
	opEstimate               // one estimate request or series segment
	opPatch                  // one topology change
	numKinds
)

var kindNames = [numKinds]string{"register", "estimate", "patch"}

// opLog counts every operation attempted and failed, per kind, and keeps
// the latency of each successful one. A failed operation is counted,
// never dropped, and contributes no latency sample.
type opLog struct {
	attempted [numKinds]int
	failed    [numKinds]int
	latMS     [numKinds][]float64
	firstErr  error
}

// do runs one operation, timing it from call to return.
func (l *opLog) do(kind opKind, f func() error) (ms float64, err error) {
	l.attempted[kind]++
	t0 := time.Now()
	err = f()
	ms = float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		l.failed[kind]++
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("%s operation: %w", kindNames[kind], err)
		}
		return ms, err
	}
	l.latMS[kind] = append(l.latMS[kind], ms)
	return ms, nil
}

// add folds another log's counts into l (latencies stay with their
// phase: only the timed phase's samples become metrics).
func (l *opLog) add(o *opLog) {
	for k := range l.attempted {
		l.attempted[k] += o.attempted[k]
		l.failed[k] += o.failed[k]
	}
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

func (l *opLog) totals() (attempted, failed int) {
	for k := range l.attempted {
		attempted += l.attempted[k]
		failed += l.failed[k]
	}
	return attempted, failed
}
