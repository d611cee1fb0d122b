package sim

import (
	"errors"
	"strings"
	"testing"
)

func TestRunCheckedClean(t *testing.T) {
	eng := NewEngine()
	ran := false
	Spawn(eng, "worker", func(p *Process) {
		p.Wait(10)
		ran = true
	})
	if err := eng.RunChecked(0); err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if !ran {
		t.Fatal("process body did not run")
	}
	if got := eng.StuckProcesses(); len(got) != 0 {
		t.Fatalf("no process should be stuck, got %v", got)
	}
}

func TestRunCheckedDetectsDeadlock(t *testing.T) {
	eng := NewEngine()
	never := func(Callee) {} // nothing ever calls the wake record
	Spawn(eng, "blocked-a", func(p *Process) { p.WaitCallee(never) })
	Spawn(eng, "blocked-b", func(p *Process) { p.WaitCallee(never) })
	Spawn(eng, "fine", func(p *Process) { p.Wait(5) })

	err := eng.RunChecked(0)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	if len(de.Stuck) != 2 || de.Stuck[0] != "blocked-a" || de.Stuck[1] != "blocked-b" {
		t.Fatalf("stuck processes = %v, want [blocked-a blocked-b]", de.Stuck)
	}
	if de.Pending != 0 {
		t.Fatalf("a true deadlock drains the queue, pending = %d", de.Pending)
	}
	if !strings.Contains(err.Error(), "blocked-a") {
		t.Fatalf("diagnostic must name stuck processes:\n%s", err)
	}
}

func TestRunCheckedCycleBudget(t *testing.T) {
	eng := NewEngine()
	Spawn(eng, "endless", func(p *Process) {
		for {
			p.Wait(100)
		}
	})
	err := eng.RunChecked(1000)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	if de.Cycle > 1000 {
		t.Fatalf("watchdog fired late, at cycle %d", de.Cycle)
	}
	if de.Pending == 0 {
		t.Fatal("budget overrun should report the still-pending event")
	}
	if !strings.Contains(de.Reason, "budget") {
		t.Fatalf("reason %q should mention the budget", de.Reason)
	}
}

func TestRunCheckedDiagnosticHooks(t *testing.T) {
	eng := NewEngine()
	eng.OnDiagnostic(func() []string { return []string{"component: 3 widgets outstanding"} })
	Spawn(eng, "stuck", func(p *Process) { p.WaitCallee(func(Callee) {}) })
	err := eng.RunChecked(0)
	if err == nil || !strings.Contains(err.Error(), "3 widgets outstanding") {
		t.Fatalf("diagnostic hook output missing:\n%v", err)
	}
}

func TestProcessPanicIsTyped(t *testing.T) {
	eng := NewEngine()
	cause := errors.New("model invariant broken")
	Spawn(eng, "bad", func(p *Process) {
		p.Wait(1)
		panic(cause)
	})
	defer func() {
		r := recover()
		pp, ok := r.(*ProcessPanic)
		if !ok {
			t.Fatalf("want *ProcessPanic, got %v", r)
		}
		if pp.Name != "bad" {
			t.Fatalf("panic names process %q, want bad", pp.Name)
		}
		if !errors.Is(pp, cause) {
			t.Fatal("ProcessPanic must unwrap to the original error")
		}
	}()
	eng.RunChecked(0)
	t.Fatal("expected the process panic to propagate")
}
