package schedule

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Discrete-event validation of the round-latency model.
//
// Equ. 5 charges each round max(compute, memory), justified by double
// buffering: while the PE array computes round i from the working buffer,
// the DMA prefetches round i+1 into the filling buffer. This file
// simulates that machinery event by event — a serial DMA engine, two
// buffer halves, and the rule that a round's compute starts only when its
// fill completed and the previous compute finished — so tests can measure
// exactly when the closed-form model is faithful (homogeneous rounds, as
// produced by the optimizer) and how far it can drift on adversarial
// round mixes.

// simulateDoubleBuffer returns the end-to-end cycle count of executing N
// rounds with the given per-round compute and memory-fill times under
// double buffering:
//
//   - the DMA is serial: fill i starts after fill i-1 completes, and not
//     before the buffer half it writes (used by compute i-2) is free;
//   - compute i starts at max(fill i done, compute i-1 done).
//
// Both slices must have equal length.
func simulateDoubleBuffer(compute, mem []int64) int64 {
	if len(compute) != len(mem) {
		panic("schedule: compute/mem length mismatch")
	}
	n := len(compute)
	if n == 0 {
		return 0
	}
	fillDone := make([]int64, n)
	computeDone := make([]int64, n)
	for i := 0; i < n; i++ {
		fillStart := int64(0)
		if i > 0 {
			fillStart = fillDone[i-1]
		}
		if i >= 2 && computeDone[i-2] > fillStart {
			// The buffer half this fill writes is still being consumed.
			fillStart = computeDone[i-2]
		}
		fillDone[i] = fillStart + mem[i]

		computeStart := fillDone[i]
		if i > 0 && computeDone[i-1] > computeStart {
			computeStart = computeDone[i-1]
		}
		computeDone[i] = computeStart + compute[i]
	}
	return computeDone[n-1]
}

// closedFormRounds is Equ. 5's estimate for the same execution:
// Σ max(compute_i, mem_i).
func closedFormRounds(compute, mem []int64) int64 {
	if len(compute) != len(mem) {
		panic("schedule: compute/mem length mismatch")
	}
	var total int64
	for i := range compute {
		m := compute[i]
		if mem[i] > m {
			m = mem[i]
		}
		total += m
	}
	return total
}

func TestSimulateDoubleBufferEmptyAndSingle(t *testing.T) {
	if simulateDoubleBuffer(nil, nil) != 0 {
		t.Fatal("empty schedule should cost 0")
	}
	// One round: fill then compute, no overlap possible.
	if got := simulateDoubleBuffer([]int64{10}, []int64{4}); got != 14 {
		t.Fatalf("single round = %d, want 14", got)
	}
}

func TestSimulateDoubleBufferPerfectOverlap(t *testing.T) {
	// Compute-bound homogeneous rounds: fills hide entirely behind compute
	// except the first. Total = mem[0] + N*compute.
	compute := []int64{100, 100, 100, 100}
	mem := []int64{20, 20, 20, 20}
	want := int64(20 + 4*100)
	if got := simulateDoubleBuffer(compute, mem); got != want {
		t.Fatalf("simulated = %d, want %d", got, want)
	}
}

func TestSimulateDoubleBufferMemoryBound(t *testing.T) {
	// Memory-bound homogeneous rounds: the serial DMA is the bottleneck.
	// Total = N*mem + last compute.
	compute := []int64{10, 10, 10}
	mem := []int64{50, 50, 50}
	want := int64(3*50 + 10)
	if got := simulateDoubleBuffer(compute, mem); got != want {
		t.Fatalf("simulated = %d, want %d", got, want)
	}
}

// The model-validity result the optimizer relies on: for homogeneous
// rounds (what the packer produces within a layer), Equ. 5's closed form
// matches the event simulation up to one round of edge effects.
func TestClosedFormFaithfulOnHomogeneousRounds(t *testing.T) {
	f := func(cRaw, mRaw, nRaw uint8) bool {
		c := int64(cRaw) + 1
		m := int64(mRaw) + 1
		n := int(nRaw)%30 + 2
		compute := make([]int64, n)
		mem := make([]int64, n)
		for i := range compute {
			compute[i] = c
			mem[i] = m
		}
		sim := simulateDoubleBuffer(compute, mem)
		cf := closedFormRounds(compute, mem)
		diff := sim - cf
		if diff < 0 {
			diff = -diff
		}
		// Edge effects: the first fill cannot hide, the last compute cannot
		// overlap anything.
		return diff <= c+m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Hard bounds that hold for any round mix: both engines are serial, so
// the simulation can never finish before either engine's total work, and
// double buffering can never be slower than running fills and computes
// back to back.
func TestSimulationRespectsEngineBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(20) + 1
		compute := make([]int64, n)
		mem := make([]int64, n)
		var sumC, sumM int64
		for i := range compute {
			compute[i] = int64(rng.Intn(100) + 1)
			mem[i] = int64(rng.Intn(100) + 1)
			sumC += compute[i]
			sumM += mem[i]
		}
		sim := simulateDoubleBuffer(compute, mem)
		lower := sumC
		if sumM > lower {
			lower = sumM
		}
		if sim < lower {
			t.Fatalf("simulation (%d) beat the serial-engine lower bound (%d)", sim, lower)
		}
		if sim > sumC+sumM {
			t.Fatalf("simulation (%d) exceeded the zero-overlap upper bound (%d)", sim, sumC+sumM)
		}
	}
}

// Adversarial alternation shows where Equ. 5 is pessimistic: big-compute
// rounds hide the big fills of their successors, so the closed form can
// overestimate by up to 2x. The optimizer's homogeneous packing avoids
// this regime by construction.
func TestClosedFormPessimisticOnAlternatingRounds(t *testing.T) {
	n := 40
	compute := make([]int64, n)
	mem := make([]int64, n)
	for i := range compute {
		if i%2 == 0 {
			compute[i], mem[i] = 100, 0
		} else {
			compute[i], mem[i] = 0, 100
		}
	}
	sim := simulateDoubleBuffer(compute, mem)
	cf := closedFormRounds(compute, mem)
	if float64(cf) < 1.8*float64(sim) {
		t.Fatalf("expected ~2x pessimism on alternating rounds: sim %d vs closed form %d", sim, cf)
	}
}

func TestSimulateDoubleBufferLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	simulateDoubleBuffer([]int64{1}, []int64{1, 2})
}
