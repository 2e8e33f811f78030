package privacy

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"p2b/internal/rng"
)

func TestEpsilonPaperValue(t *testing.T) {
	// The headline: p = 0.5 gives epsilon = ln 2 ~ 0.693.
	got := Epsilon(0.5)
	if math.Abs(got-math.Ln2) > 1e-12 {
		t.Fatalf("Epsilon(0.5) = %v, want ln 2", got)
	}
}

func TestEpsilonZero(t *testing.T) {
	if Epsilon(0) != 0 {
		t.Fatalf("Epsilon(0) = %v, want 0", Epsilon(0))
	}
}

func TestEpsilonMonotoneIncreasing(t *testing.T) {
	prev := -1.0
	for p := 0.0; p < 0.99; p += 0.01 {
		e := Epsilon(p)
		if e <= prev {
			t.Fatalf("Epsilon not strictly increasing at p=%v: %v <= %v", p, e, prev)
		}
		prev = e
	}
}

func TestEpsilonDivergesNearOne(t *testing.T) {
	if Epsilon(0.999999) < 10 {
		t.Fatalf("Epsilon near p=1 should blow up, got %v", Epsilon(0.999999))
	}
}

func TestEpsilonPanicsOutsideRange(t *testing.T) {
	for _, p := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Epsilon(%v) did not panic", p)
				}
			}()
			Epsilon(p)
		}()
	}
}

func TestEpsilonGeneralReducesToEpsilon(t *testing.T) {
	for p := 0.05; p < 0.95; p += 0.05 {
		if math.Abs(EpsilonGeneral(p, 0)-Epsilon(p)) > 1e-15 {
			t.Fatalf("EpsilonGeneral(p, 0) != Epsilon(p) at %v", p)
		}
	}
}

func TestEpsilonGeneralGrowsWithEpsBar(t *testing.T) {
	if EpsilonGeneral(0.5, 0.5) <= EpsilonGeneral(0.5, 0) {
		t.Fatal("a leakier encoder must cost more epsilon")
	}
}

func TestDeltaDecaysExponentiallyInL(t *testing.T) {
	d10 := Delta(10, 0.5, DefaultOmega)
	d20 := Delta(20, 0.5, DefaultOmega)
	d40 := Delta(40, 0.5, DefaultOmega)
	if !(d10 > d20 && d20 > d40) {
		t.Fatalf("Delta should decay with l: %v, %v, %v", d10, d20, d40)
	}
	// Doubling l squares the (sub-1) factor: d20 = d10^2 for this form.
	if math.Abs(d20-d10*d10) > 1e-12 {
		t.Fatalf("Delta(2l) = %v, want Delta(l)^2 = %v", d20, d10*d10)
	}
}

func TestDeltaGrowsWithP(t *testing.T) {
	if Delta(10, 0.9, 1) <= Delta(10, 0.1, 1) {
		t.Fatal("higher participation should weaken the delta bound")
	}
}

func TestParticipationForEpsilonInverse(t *testing.T) {
	for _, eps := range []float64{0.1, 0.5, math.Ln2, 1.5, 3} {
		p := ParticipationForEpsilon(eps)
		if Epsilon(p) > eps+1e-9 {
			t.Fatalf("ParticipationForEpsilon(%v) = %v overshoots: Epsilon = %v", eps, p, Epsilon(p))
		}
		if math.Abs(Epsilon(p)-eps) > 1e-6 {
			t.Fatalf("inverse too loose at eps=%v: Epsilon(%v) = %v", eps, p, Epsilon(p))
		}
	}
	if ParticipationForEpsilon(0) != 0 {
		t.Fatal("eps=0 must force p=0")
	}
}

func TestParticipationInverseProperty(t *testing.T) {
	if err := quick.Check(func(raw uint16) bool {
		p := float64(raw) / 65536 * 0.98
		eps := Epsilon(p)
		back := ParticipationForEpsilon(eps)
		return math.Abs(back-p) < 1e-6
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCompose(t *testing.T) {
	if Compose(0.5, 3) != 1.5 {
		t.Fatalf("Compose = %v", Compose(0.5, 3))
	}
	if Compose(0.5, 0) != 0 {
		t.Fatal("Compose with r=0 should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative r did not panic")
		}
	}()
	Compose(0.5, -1)
}

func TestAdvancedComposeTighterForManyDisclosures(t *testing.T) {
	eps := 0.1
	// For large r, sqrt(r) growth beats linear growth.
	r := 200
	adv := AdvancedCompose(eps, r, 1e-6)
	basic := Compose(eps, r)
	if adv >= basic {
		t.Fatalf("advanced %v should beat basic %v at r=%d", adv, basic, r)
	}
}

func TestAdvancedComposeNeverWorseThanBasic(t *testing.T) {
	if err := quick.Check(func(e uint8, rr uint8) bool {
		eps := float64(e%100)/100 + 0.01
		r := int(rr % 50)
		return AdvancedCompose(eps, r, 1e-5) <= Compose(eps, r)+1e-12
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdvancedComposeEdges(t *testing.T) {
	if AdvancedCompose(0.5, 0, 1e-6) != 0 {
		t.Fatal("r=0 should cost 0")
	}
	if AdvancedCompose(0, 10, 1e-6) != 0 {
		t.Fatal("eps=0 should cost 0")
	}
	for _, slack := range []float64{0, 1, -0.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("slack %v did not panic", slack)
				}
			}()
			AdvancedCompose(0.5, 2, slack)
		}()
	}
}

func TestMinCrowd(t *testing.T) {
	if MinCrowd(nil) != 0 {
		t.Fatal("empty batch crowd should be 0")
	}
	if got := MinCrowd([]int{1, 1, 2, 2, 2}); got != 2 {
		t.Fatalf("MinCrowd = %d, want 2", got)
	}
	if got := MinCrowd([]int{5}); got != 1 {
		t.Fatalf("MinCrowd singleton = %d, want 1", got)
	}
}

func TestVerifyCrowdBlending(t *testing.T) {
	codes := []int{1, 1, 1, 2, 2, 2}
	if !VerifyCrowdBlending(codes, 3) {
		t.Fatal("batch satisfying l=3 rejected")
	}
	if VerifyCrowdBlending(codes, 4) {
		t.Fatal("batch failing l=4 accepted")
	}
	if !VerifyCrowdBlending(nil, 100) {
		t.Fatal("empty batch should satisfy any l")
	}
}

func TestSampler(t *testing.T) {
	r := rng.New(1)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if Participates(0.5, r) {
			hits++
		}
	}
	if math.Abs(float64(hits)/n-0.5) > 0.01 {
		t.Fatalf("participation frequency %v", float64(hits)/n)
	}
	// The draw is exactly one Bernoulli trial on the caller's stream, so a
	// device's report schedule is the same whichever of the two it calls.
	a, b := rng.New(7), rng.New(7)
	for i := 0; i < 1000; i++ {
		if Participates(0.3, a) != b.Bernoulli(0.3) {
			t.Fatalf("draw %d differs from Bernoulli on the same stream", i)
		}
	}
	for i := 0; i < 100; i++ {
		if Participates(0, r) {
			t.Fatal("p = 0 participated")
		}
	}
}

func TestSamplerValidation(t *testing.T) {
	for _, p := range []float64{-0.1, 1.0, 1.5, math.NaN()} {
		if CheckParticipation(p) == nil {
			t.Errorf("CheckParticipation(%v) accepted", p)
		}
	}
	for _, p := range []float64{0, 0.5, 0.999} {
		if err := CheckParticipation(p); err != nil {
			t.Errorf("CheckParticipation(%v) = %v", p, err)
		}
	}
}

func TestAccountant(t *testing.T) {
	a := NewAccountant(0.5)
	if _, worst := a.WorstCase(); worst != 0 {
		t.Fatal("fresh accountant should report 0")
	}
	a.Record("alice")
	a.Record("alice")
	a.Record("bob")
	if got := a.Budget("alice"); got != 1.0 {
		t.Fatalf("alice budget %v, want 1.0", got)
	}
	if got := a.Budget("bob"); got != 0.5 {
		t.Fatalf("bob budget %v, want 0.5", got)
	}
	if got := a.Budget("carol"); got != 0 {
		t.Fatalf("carol budget %v, want 0", got)
	}
	user, worst := a.WorstCase()
	if user != "alice" || worst != 1.0 {
		t.Fatalf("WorstCase = %q, %v", user, worst)
	}
	if a.Users() != 2 {
		t.Fatalf("Users = %d", a.Users())
	}
}

func TestAccountantConcurrent(t *testing.T) {
	a := NewAccountant(0.1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.Record(fmt.Sprintf("user-%d", i%10))
			}
		}(w)
	}
	wg.Wait()
	if a.Users() != 10 {
		t.Fatalf("Users = %d, want 10", a.Users())
	}
	// 8 workers x 100 records per user.
	if got := a.Budget("user-3"); math.Abs(got-0.1*800) > 1e-9 {
		t.Fatalf("user-3 budget %v, want 80", got)
	}
}
