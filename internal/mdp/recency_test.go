package mdp

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// tableOps is a random operation sequence over a small AssocTable, long
// enough that single sets see hundreds of touches.
type tableOps []uint16

func (tableOps) Generate(r *rand.Rand, _ int) reflect.Value {
	ops := make(tableOps, r.Intn(1500))
	for i := range ops {
		ops[i] = uint16(r.Intn(1 << 16))
	}
	return reflect.ValueOf(ops)
}

// recencyModel is the reference replacement policy: per set, an explicit
// recency list of ways (most recent first) and a validity flag per way. The
// victim is the first invalid way, else the valid way used least recently.
type recencyModel struct {
	ways  int
	order [][]int // per set, most recently used way first
	valid [][]bool
	tag   [][]uint32
}

func newRecencyModel(sets, ways int) *recencyModel {
	m := &recencyModel{ways: ways}
	for s := 0; s < sets; s++ {
		m.order = append(m.order, nil)
		m.valid = append(m.valid, make([]bool, ways))
		m.tag = append(m.tag, make([]uint32, ways))
	}
	m.reset()
	return m
}

func (m *recencyModel) reset() {
	for s := range m.order {
		m.order[s] = m.order[s][:0]
		for w := 0; w < m.ways; w++ {
			m.order[s] = append(m.order[s], w)
		}
		clear(m.valid[s])
	}
}

func (m *recencyModel) touch(s, w int) {
	o := m.order[s]
	i := 0
	for o[i] != w {
		i++
	}
	copy(o[1:i+1], o[:i])
	o[0] = w
}

func (m *recencyModel) victim(s int) int {
	for w := 0; w < m.ways; w++ {
		if !m.valid[s][w] {
			return w
		}
	}
	return m.order[s][m.ways-1]
}

func (m *recencyModel) lookup(s int, tag uint32) int {
	for w := 0; w < m.ways; w++ {
		if m.valid[s][w] && m.tag[s][w] == tag {
			return w
		}
	}
	return -1
}

// TestAssocTableRecencyMatchesModel drives random Insert, Lookup+Touch,
// Invalidate and Reset sequences — with hundreds of touches per set between
// resets — and requires every set's Victim, occupancy bit and every Lookup
// to match the reference recency-list model after each operation.
func TestAssocTableRecencyMatchesModel(t *testing.T) {
	const sets, ways = 2, 4
	maxTouches := 0 // most touches one set saw between resets
	f := func(ops tableOps) bool {
		tb := NewAssocTable(sets, ways, 10)
		m := newRecencyModel(sets, ways)
		var touches [sets]int
		for i, op := range ops {
			set := uint32(op) & (sets - 1)
			tag := uint32(op>>1) & 7
			switch k := (op >> 12) & 15; {
			case op%1021 == 0:
				tb.Reset()
				m.reset()
				touches = [sets]int{}
			case k < 6:
				v := m.victim(int(set))
				if _, w := tb.Insert(set, Entry{Valid: true, Tag: tag}); w != v {
					t.Logf("op %d: Insert used way %d, model victim %d", i, w, v)
					return false
				}
				m.valid[set][v], m.tag[set][v] = true, tag
				m.touch(int(set), v)
				touches[set]++
			case k < 13:
				e, w := tb.Lookup(set, tag)
				if mw := m.lookup(int(set), tag); w != mw || (e == nil) != (mw < 0) {
					t.Logf("op %d: Lookup way %d, model %d", i, w, mw)
					return false
				}
				if w >= 0 {
					tb.Touch(set, w)
					m.touch(int(set), w)
					touches[set]++
				}
			default:
				w := int(op>>4) & (ways - 1)
				tb.Invalidate(set, w)
				m.valid[set][w] = false
			}
			maxTouches = max(maxTouches, touches[set])
			for s := 0; s < sets; s++ {
				if v, mv := tb.Victim(uint32(s)), m.victim(s); v != mv {
					t.Logf("op %d: set %d victim %d, model %d", i, s, v, mv)
					return false
				}
				if occ, mocc := tb.Occupied(uint32(s)), slices.Contains(m.valid[s], true); occ != mocc {
					t.Logf("op %d: set %d occupied %v, model %v", i, s, occ, mocc)
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
