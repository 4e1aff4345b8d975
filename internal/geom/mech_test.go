package geom

import (
	"math"
	"math/rand"
	"testing"
)

// bitsEq compares floats for exact bit equality — the compiled tables
// promise byte-identical results, not merely close ones.
func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// The load-bearing equivalence test: for both the uniform and the zoned
// drive, the compiled model must reproduce the reference Geometry's
// MediaOp, BlockPos and Cylinder results bit for bit across random
// operations, including multi-track and multi-zone transfers.
func TestMechMatchesGeometry(t *testing.T) {
	geoms := map[string]Geometry{
		"uniform": Ultrastar36Z15(),
		"zoned":   Ultrastar36Z15Zoned(),
	}
	for name, g := range geoms {
		t.Run(name, func(t *testing.T) {
			m := g.Compile()
			if m.Blocks() != g.Blocks() {
				t.Fatalf("Blocks: mech %d, geom %d", m.Blocks(), g.Blocks())
			}
			rng := rand.New(rand.NewSource(1))
			blocks := g.Blocks()
			for i := 0; i < 20000; i++ {
				lba := rng.Int63n(blocks)
				wp, gp := m.BlockPos(lba), g.BlockPos(lba)
				if wp != gp {
					t.Fatalf("BlockPos(%d): mech %+v, geom %+v", lba, wp, gp)
				}
				if c := m.Cylinder(lba); c != gp.Cylinder {
					t.Fatalf("Cylinder(%d) = %d, want %d", lba, c, gp.Cylinder)
				}

				// Random op: bias some starts near track/zone edges via
				// small counts from random positions; large counts cross
				// many tracks (and zones on the zoned drive).
				count := 1 + rng.Intn(96)
				if lba+int64(count) > blocks {
					count = int(blocks - lba)
				}
				fromCyl := rng.Intn(g.Cylinders)
				start := drawStart(rng, g.RevTime())
				if rng.Intn(4) == 0 {
					// No seek: the platter angle is start/rev itself,
					// so k·rev starts reduce exact integers.
					fromCyl = gp.Cylinder
				}
				got := m.MediaOp(fromCyl, lba, count, start)
				want := g.MediaOp(fromCyl, lba, count, start)
				if !bitsEq(got.SeekTime, want.SeekTime) ||
					!bitsEq(got.RotWait, want.RotWait) ||
					!bitsEq(got.TransferTime, want.TransferTime) ||
					got.EndCylinder != want.EndCylinder {
					t.Fatalf("MediaOp(%d, %d, %d, %v):\n mech %+v\n geom %+v",
						fromCyl, lba, count, start, got, want)
				}
			}
		})
	}
}

// drawStart picks a media-op start time for the bit-exact comparison:
// uniform over the first 100 s, log-uniform up to 1e5 s (the horizons
// of long open-loop runs, where the platter angle keeps few fraction
// bits), or an exact multiple k·rev or one of its 1-ulp neighbours,
// where the angle reduction sits on a whole-revolution boundary.
func drawStart(rng *rand.Rand, rev float64) float64 {
	switch rng.Intn(3) {
	case 0:
		return rng.Float64() * 100
	case 1:
		return math.Pow(10, -6+11*rng.Float64())
	}
	start := float64(rng.Int63n(int64(1e5/rev))) * rev
	switch rng.Intn(3) {
	case 0:
		return math.Nextafter(start, math.Inf(-1))
	case 1:
		return math.Nextafter(start, math.Inf(1))
	}
	return start
}

// Seek distances at and around the curve's breakpoints must come out of
// the table exactly as the closed form computes them.
func TestMechSeekTableEdges(t *testing.T) {
	g := Ultrastar36Z15()
	m := g.Compile()
	for _, d := range []int{0, 1, 2, g.Seek.Theta - 1, g.Seek.Theta, g.Seek.Theta + 1, g.Cylinders - 1} {
		if !bitsEq(m.seekTime(d), g.Seek.Time(d)) {
			t.Fatalf("seekTime(%d) = %v, want %v", d, m.seekTime(d), g.Seek.Time(d))
		}
		if !bitsEq(m.seekTime(-d), g.Seek.Time(-d)) {
			t.Fatalf("seekTime(%d) = %v, want %v", -d, m.seekTime(-d), g.Seek.Time(-d))
		}
	}
}

// Compile must hand every caller of an equal geometry the same model —
// the tables are ~90 KB each and thousands of drives are built per
// sweep.
func TestCompileCaches(t *testing.T) {
	a := Ultrastar36Z15().Compile()
	b := Ultrastar36Z15().Compile()
	if a != b {
		t.Fatal("equal geometries compiled to distinct models")
	}
	z := Ultrastar36Z15Zoned().Compile()
	if z == a {
		t.Fatal("distinct geometries shared a model")
	}
	if z2 := Ultrastar36Z15Zoned().Compile(); z2 != z {
		t.Fatal("equal zoned geometries compiled to distinct models")
	}
}

func TestMechOutOfRangePanics(t *testing.T) {
	m := Ultrastar36Z15().Compile()
	for _, fn := range []func(){
		func() { m.BlockPos(-1) },
		func() { m.BlockPos(m.Blocks()) },
		func() { m.Cylinder(m.Blocks()) },
		func() { m.MediaOp(0, m.Blocks(), 1, 0) },
		func() { m.MediaOp(0, 0, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkMediaOpReference(b *testing.B) {
	g := Ultrastar36Z15()
	for i := 0; i < b.N; i++ {
		g.MediaOp(i%g.Cylinders, int64(i%1000)*32, 32, float64(i)*1e-3)
	}
}

func BenchmarkMediaOpCompiled(b *testing.B) {
	g := Ultrastar36Z15()
	m := g.Compile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MediaOp(i%g.Cylinders, int64(i%1000)*32, 32, float64(i)*1e-3)
	}
}
