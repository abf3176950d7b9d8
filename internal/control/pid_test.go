package control

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPIDProportional(t *testing.T) {
	p := PID{Kp: 2}
	if got := p.Update(1.5, 0.01); got != 3 {
		t.Fatalf("P-only output = %v, want 3", got)
	}
}

func TestPIDIntegralAccumulates(t *testing.T) {
	p := PID{Ki: 1}
	for i := 0; i < 100; i++ {
		p.Update(1, 0.01)
	}
	if got := p.Integrator(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("integrator = %v, want 1", got)
	}
}

func TestPIDIntegralClamped(t *testing.T) {
	p := PID{Ki: 1, ILimit: 0.5}
	for i := 0; i < 1000; i++ {
		p.Update(10, 0.01)
	}
	if got := p.Integrator(); got != 0.5 {
		t.Fatalf("integrator = %v, want clamped 0.5", got)
	}
	p2 := PID{Ki: 1, ILimit: 0.5}
	for i := 0; i < 1000; i++ {
		p2.Update(-10, 0.01)
	}
	if got := p2.Integrator(); got != -0.5 {
		t.Fatalf("integrator = %v, want -0.5", got)
	}
}

func TestPIDDerivativeNeedsHistory(t *testing.T) {
	p := PID{Kd: 1}
	if got := p.Update(1, 0.1); got != 0 {
		t.Fatalf("first-sample derivative = %v, want 0", got)
	}
	if got := p.Update(2, 0.1); math.Abs(got-10) > 1e-9 {
		t.Fatalf("derivative = %v, want 10", got)
	}
}

func TestPIDOutputClamp(t *testing.T) {
	p := PID{Kp: 100, OutLimit: 1}
	if got := p.Update(5, 0.01); got != 1 {
		t.Fatalf("output = %v, want clamped 1", got)
	}
	if got := p.Update(-5, 0.01); got != -1 {
		t.Fatalf("output = %v, want clamped -1", got)
	}
}

func TestPIDZeroDTSafe(t *testing.T) {
	p := PID{Kp: 1, Ki: 1, Kd: 1}
	if got := p.Update(2, 0); got != 2 {
		t.Fatalf("dt=0 output = %v, want pure P", got)
	}
}

func TestLowPassFirstSamplePasses(t *testing.T) {
	f := LowPass{Alpha: 0.1}
	if got := f.Update(5); got != 5 {
		t.Fatalf("first sample = %v, want 5", got)
	}
}

func TestLowPassConverges(t *testing.T) {
	f := LowPass{Alpha: 0.2}
	f.Update(0)
	var got float64
	for i := 0; i < 100; i++ {
		got = f.Update(10)
	}
	if math.Abs(got-10) > 1e-6 {
		t.Fatalf("filter did not converge: %v", got)
	}
}

func TestLowPassSmoothing(t *testing.T) {
	f := LowPass{Alpha: 0.1}
	f.Update(0)
	got := f.Update(10)
	if got != 1 {
		t.Fatalf("one step = %v, want 1", got)
	}
	if f.Value() != 1 {
		t.Fatalf("Value = %v", f.Value())
	}
}

func TestLowPassAlphaClamped(t *testing.T) {
	f := LowPass{Alpha: 5} // silly alpha behaves as passthrough
	f.Update(0)
	if got := f.Update(7); got != 7 {
		t.Fatalf("alpha>1 output = %v, want 7", got)
	}
}

// Property: PID output is always within ±OutLimit when set.
func TestPIDOutputBoundedProperty(t *testing.T) {
	f := func(errs []float64) bool {
		p := PID{Kp: 3, Ki: 2, Kd: 0.5, OutLimit: 1, ILimit: 10}
		for _, e := range errs {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				continue
			}
			if out := p.Update(e, 0.004); out > 1 || out < -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: zero error with zero state produces zero output.
func TestPIDZeroInputZeroOutput(t *testing.T) {
	p := PID{Kp: 1, Ki: 1, Kd: 1, OutLimit: 5}
	for i := 0; i < 50; i++ {
		if out := p.Update(0, 0.01); out != 0 {
			t.Fatalf("zero error produced output %v", out)
		}
	}
}
