package simkernel

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// ticker is a daemon body that never ends: it logs the time and sleeps
// period, forever.
type ticker struct {
	period Time
	ticks  []Time
}

func (d *ticker) Step(c *ContProc) bool {
	d.ticks = append(d.ticks, c.Now())
	c.Sleep(d.period.Duration())
	return false
}

// wgParker sleeps nap, then waits on wg.
type wgParker struct {
	nap   Time
	wg    *WaitGroup
	slept bool
}

func (w *wgParker) Step(c *ContProc) bool {
	if !w.slept {
		w.slept = true
		if c.SleepUntil(c.Now() + w.nap) {
			return false
		}
	}
	return w.wg.WaitCont(c)
}

// TestRunEndsWithLastWorker pins the end of a run: with a daemon that
// never ends, Run returns at the instant the last worker finishes, after
// the event in which it does, and the run is not stuck.
func TestRunEndsWithLastWorker(t *testing.T) {
	k := New()
	d := &ticker{period: 3}
	daemon := k.SpawnDaemon(d)
	k.SpawnCont(&sleeperCont{left: 4})
	k.SpawnContAt(2, &sleeperCont{left: 8})
	if end := k.Run(); end != 10 {
		t.Fatalf("Run returned at %v, want 10, where the last worker finishes", end)
	}
	if want := []Time{0, 3, 6, 9}; !slices.Equal(d.ticks, want) {
		t.Fatalf("daemon ticked at %v, want %v", d.ticks, want)
	}
	if daemon.Done() || k.Live() != 1 {
		t.Fatalf("daemon done %v, %d live; want the daemon alone live", daemon.Done(), k.Live())
	}
	if err := k.Stuck(); err != nil {
		t.Fatalf("a finished run reports %v", err)
	}
}

// TestRunUntilRunsDaemonsAcrossGap pins a gap between workloads: a
// RunUntil with no live worker runs the daemons to its deadline, and the
// next worker's run ends with it again.
func TestRunUntilRunsDaemonsAcrossGap(t *testing.T) {
	k := New()
	d := &ticker{period: 4}
	k.SpawnDaemon(d)
	k.SpawnCont(&sleeperCont{left: 2})
	if end := k.Run(); end != 2 {
		t.Fatalf("first run returned at %v, want 2", end)
	}
	if end := k.RunUntil(20); end != 20 {
		t.Fatalf("the gap returned at %v, want its deadline 20", end)
	}
	if want := []Time{0, 4, 8, 12, 16, 20}; !slices.Equal(d.ticks, want) {
		t.Fatalf("daemon ticked at %v, want %v", d.ticks, want)
	}
	k.SpawnCont(&sleeperCont{left: 5})
	if end := k.Run(); end != 25 {
		t.Fatalf("second run returned at %v, want 25", end)
	}
}

// TestStuckNamesParkedWorker pins the stuck report: a worker parked on a
// WaitGroup that nothing releases makes Run return after the event in
// which it parks, and Stuck names it by id and body type, with a daemon
// live and with none.
func TestStuckNamesParkedWorker(t *testing.T) {
	for _, daemon := range []bool{false, true} {
		k := New()
		id := 1
		if daemon {
			k.SpawnDaemon(&ticker{period: 3})
			id = 2
		}
		var wg WaitGroup
		wg.Add(1)
		k.SpawnCont(&wgParker{nap: 5, wg: &wg})
		k.SpawnCont(&sleeperCont{left: 1})
		if end := k.Run(); end != 5 {
			t.Fatalf("daemon %v: Run returned at %v, want 5, where the worker parks", daemon, end)
		}
		err := k.Stuck()
		var stuck *StuckError
		if !errors.As(err, &stuck) {
			t.Fatalf("daemon %v: Stuck = %v, want a *StuckError", daemon, err)
		}
		want := []ParkedWorker{{ID: id, Body: "*simkernel.wgParker"}}
		if stuck.At != 5 || !slices.Equal(stuck.Parked, want) {
			t.Fatalf("daemon %v: stuck at %v with %v, want at 5 with %v", daemon, stuck.At, stuck.Parked, want)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("process %d (*simkernel.wgParker)", id)) {
			t.Fatalf("daemon %v: message %q does not name the worker", daemon, msg)
		}
	}
}

// TestCancelledTimerIsNotWork pins that only live events are work: a
// worker waits for a timer to release it, and once the timer is
// cancelled, the run is stuck at once instead of at the timer's time.
func TestCancelledTimerIsNotWork(t *testing.T) {
	for _, cancel := range []bool{false, true} {
		k := New()
		k.SpawnDaemon(&ticker{period: 3})
		var wg WaitGroup
		wg.Add(1)
		tm := k.At(100, wg.Done)
		p := k.SpawnCont(&wgParker{wg: &wg})
		if cancel {
			tm.Cancel()
		}
		end := k.Run()
		if !cancel {
			if end != 100 || !p.Done() || k.Stuck() != nil {
				t.Fatalf("live timer: Run returned at %v, worker done %v, stuck %v; want 100, done, not stuck", end, p.Done(), k.Stuck())
			}
			continue
		}
		if end != 0 || p.Done() || k.Stuck() == nil {
			t.Fatalf("cancelled timer: Run returned at %v, worker done %v, stuck %v; want 0, parked, stuck", end, p.Done(), k.Stuck())
		}
	}
}

// TestResetClearsWorkersAndWork pins Reset against a stuck run: it clears
// the worker and work counts and so the stuck state, and the next run
// ends with its own last worker.
func TestResetClearsWorkersAndWork(t *testing.T) {
	k := New()
	k.SpawnDaemon(&ticker{period: 3})
	var wg WaitGroup
	wg.Add(1)
	k.SpawnCont(&wgParker{nap: 1, wg: &wg})
	k.At(50, func() {}).Cancel()
	k.Run()
	if k.Stuck() == nil {
		t.Fatal("the parked worker is not reported before Reset")
	}
	k.At(70, func() {})
	k.Reset()
	if k.workers != 0 || k.work != 0 || k.Stuck() != nil {
		t.Fatalf("after Reset: %d workers, %d work, stuck %v; want none", k.workers, k.work, k.Stuck())
	}
	k.SpawnCont(&sleeperCont{left: 3})
	if end := k.Run(); end != 3 || k.Stuck() != nil {
		t.Fatalf("after Reset: Run returned at %v, stuck %v; want 3, not stuck", end, k.Stuck())
	}
}
