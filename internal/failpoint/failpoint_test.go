package failpoint

import (
	"errors"
	"sort"
	"syscall"
	"testing"
)

// arm flips the master switch for one test and restores it afterwards.
func arm(t *testing.T) {
	t.Helper()
	prev := SetEnabled(true)
	t.Cleanup(func() {
		SetEnabled(prev)
		DisableAll()
	})
}

func TestDisabledIsInert(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	if err := Enable("x", "error"); err != nil {
		t.Fatalf("Enable: %v", err)
	}
	defer DisableAll()
	if err := Inject("x"); err != nil {
		t.Fatalf("disarmed framework fired: %v", err)
	}
	if Fired("x") != 0 {
		t.Fatalf("disarmed site counted a firing")
	}
}

func TestErrorAction(t *testing.T) {
	arm(t)
	if err := Enable("a.b", "error"); err != nil {
		t.Fatal(err)
	}
	err := Inject("a.b")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	var inj *Injected
	if !errors.As(err, &inj) || inj.Site != "a.b" {
		t.Fatalf("want *Injected with site a.b, got %#v", err)
	}
	if Fired("a.b") != 1 {
		t.Fatalf("fired = %d, want 1", Fired("a.b"))
	}
	if err := Inject("other"); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
}

func TestENOSPCAction(t *testing.T) {
	arm(t)
	if err := Enable("disk", "enospc"); err != nil {
		t.Fatal(err)
	}
	err := Inject("disk")
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC in chain, got %v", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected in chain, got %v", err)
	}
}

func TestPanicAction(t *testing.T) {
	arm(t)
	if err := Enable("boom", "panic"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("panic action did not panic")
		}
		inj, ok := r.(*Injected)
		if !ok || inj.Site != "boom" {
			t.Fatalf("panic value = %#v, want *Injected{Site: boom}", r)
		}
	}()
	_ = Inject("boom")
}

func TestCountModifier(t *testing.T) {
	arm(t)
	if err := Enable("limited", "error*2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if Inject("limited") == nil {
			t.Fatalf("firing %d did not inject", i)
		}
	}
	if err := Inject("limited"); err != nil {
		t.Fatalf("exhausted site fired: %v", err)
	}
	if Fired("limited") != 2 {
		t.Fatalf("fired = %d, want 2", Fired("limited"))
	}
}

func TestProbabilityBounds(t *testing.T) {
	arm(t)
	if err := Enable("never", "error%0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if Inject("never") != nil {
			t.Fatalf("0%% site fired")
		}
	}
	if err := Enable("always", "error%100"); err != nil {
		t.Fatal(err)
	}
	if Inject("always") == nil {
		t.Fatalf("100%% site did not fire")
	}
}

func TestConfigure(t *testing.T) {
	arm(t)
	if err := Configure("s1=error, s2=enospc*3%50"); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	got := List()
	if len(got) != 2 || got[0] != "s1" || got[1] != "s2" {
		t.Fatalf("List = %v", got)
	}
	// Bare arming values and empty entries parse silently.
	if err := Configure("1"); err != nil {
		t.Fatalf("bare value: %v", err)
	}
	if err := Configure("x=notanaction"); err == nil {
		t.Fatalf("bad action accepted")
	}
}

func TestEnableRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{"", "sleep", "sleep:x", "error%200", "error*-1", "zap"} {
		if err := Enable("s", spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	DisableAll()
}

func BenchmarkInjectDisabled(b *testing.B) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	for i := 0; i < b.N; i++ {
		if Inject("bench.site") != nil {
			b.Fatal("fired")
		}
	}
}

// List returns the currently armed site names, sorted.
func List() []string {
	mu.Lock()
	names := make([]string, 0, len(sites))
	for n := range sites {
		names = append(names, n)
	}
	mu.Unlock()
	sort.Strings(names)
	return names
}
