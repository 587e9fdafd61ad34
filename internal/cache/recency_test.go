package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/config"
)

// levelOps is a random access/fill sequence over a small cache level, long
// enough that single sets see hundreds of touches.
type levelOps []uint16

func (levelOps) Generate(r *rand.Rand, _ int) reflect.Value {
	ops := make(levelOps, r.Intn(2000))
	for i := range ops {
		ops[i] = uint16(r.Intn(1 << 16))
	}
	return reflect.ValueOf(ops)
}

// TestLevelRecencyMatchesModel drives random accesses, missing fills,
// probes and resets through a 4-set, 4-way level — with hundreds of touches
// per set between resets — and requires every hit and its way, every miss's
// victim way, and every fill's evicted line to match a reference model: per
// set, the lines held in way order and a recency list of ways; a fill
// replaces the first empty way, else the least recently used one.
func TestLevelRecencyMatchesModel(t *testing.T) {
	cfg := config.Cache{SizeKB: 1, Ways: 4, LineBytes: 64, HitLatency: 1, MSHRs: 1}
	maxTouches := 0 // most touches one set saw between resets
	f := func(ops levelOps) bool {
		l := NewLevel("T", cfg)
		sets, ways := uint64(l.sets), l.ways
		held := make([][]uint64, sets) // line+1 per way, 0 = empty
		order := make([][]int, sets)   // most recently used way first
		touches := make([]int, sets)
		reset := func() {
			clear(touches)
			for s := range held {
				held[s] = make([]uint64, ways)
				order[s] = order[s][:0]
				for w := 0; w < ways; w++ {
					order[s] = append(order[s], w)
				}
			}
		}
		reset()
		touch := func(s uint64, w int) {
			o := order[s]
			i := 0
			for o[i] != w {
				i++
			}
			copy(o[1:i+1], o[:i])
			o[0] = w
			touches[s]++
			maxTouches = max(maxTouches, touches[s])
		}
		find := func(s, line uint64) int {
			for w, h := range held[s] {
				if h == line+1 {
					return w
				}
			}
			return -1
		}
		for i, op := range ops {
			line := uint64(op) & 31 // 8 lines per set
			addr := line<<6 | uint64(op>>5)&63
			s := line % sets
			switch k := op >> 11; {
			case op%1021 == 0:
				l.Reset()
				reset()
			case k < 30:
				w := find(s, line)
				way, hit := l.access(addr)
				if hit != (w >= 0) || hit && way != w {
					t.Logf("op %d: access hit %v in way %d, model way %d", i, hit, way, w)
					return false
				}
				if hit {
					touch(s, w)
					break
				}
				if k < 14 {
					break // an access that does not fill
				}
				v := -1
				for w, h := range held[s] {
					if h == 0 {
						v = w
						break
					}
				}
				if v < 0 {
					v = order[s][ways-1]
				}
				if way != v {
					t.Logf("op %d: miss victim way %d, model %d", i, way, v)
					return false
				}
				if got := l.install(addr, way); got != held[s][v] {
					t.Logf("op %d: install evicted %d, model %d", i, got, held[s][v])
					return false
				}
				held[s][v] = line + 1
				touch(s, v)
			default:
				if got := l.Lookup(addr); got != (find(s, line) >= 0) {
					t.Logf("op %d: Lookup %v, model %v", i, got, !got)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if maxTouches < 300 {
		t.Errorf("no set saw more than %d touches between resets; want > 255", maxTouches)
	}
}
