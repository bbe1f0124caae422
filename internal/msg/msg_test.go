package msg

import (
	"math"
	"testing"

	"bdps/internal/filter"
	"bdps/internal/vtime"
)

func TestMakeIDUnique(t *testing.T) {
	seen := make(map[ID]bool)
	for pub := NodeID(0); pub < 4; pub++ {
		for seq := uint32(0); seq < 100; seq++ {
			id := MakeID(pub, seq)
			if seen[id] {
				t.Fatalf("duplicate id %d for pub=%d seq=%d", id, pub, seq)
			}
			seen[id] = true
		}
	}
}

func TestMessageAgeAndDeadline(t *testing.T) {
	m := &Message{Published: 1000, Allowed: 20 * vtime.Second}
	if got := m.Deadline(); got != 21000 {
		t.Errorf("Deadline = %v, want 21000", got)
	}
}

func TestMessageNoDeadline(t *testing.T) {
	m := &Message{Published: 1000}
	if m.Deadline() != vtime.Inf {
		t.Error("unspecified bound should give +Inf deadline")
	}
}

func TestAttrSetBasics(t *testing.T) {
	var s AttrSet
	s.Set("A2", filter.Num(7))
	s.Set("A1", filter.Num(3))
	s.Set("name", filter.Str("x"))
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if v, ok := s.Attr("A1"); !ok || v.Num != 3 {
		t.Error("A1 lookup failed")
	}
	if _, ok := s.Attr("missing"); ok {
		t.Error("missing attribute should not be found")
	}
	// Ordering by name.
	all := s.All()
	if all[0].Name != "A1" || all[1].Name != "A2" || all[2].Name != "name" {
		t.Errorf("attributes not sorted: %v", s)
	}
	// Replacement.
	s.Set("A1", filter.Num(9))
	if s.Len() != 3 {
		t.Error("Set of existing name must replace, not insert")
	}
	if v, _ := s.Attr("A1"); v.Num != 9 {
		t.Error("replacement value not applied")
	}
}

func TestAttrSetBinarySearchPath(t *testing.T) {
	var s AttrSet
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	for i, n := range names {
		s.Set(n, filter.Num(float64(i)))
	}
	for i, n := range names {
		v, ok := s.Attr(n)
		if !ok || v.Num != float64(i) {
			t.Fatalf("lookup %q failed in large set", n)
		}
	}
	if _, ok := s.Attr("zz"); ok {
		t.Error("zz should be absent")
	}
}

func TestAttrSetClone(t *testing.T) {
	s := NumAttrs(map[string]float64{"A1": 1, "A2": 2})
	c := s.Clone()
	c.Set("A1", filter.Num(99))
	if v, _ := s.Attr("A1"); v.Num != 1 {
		t.Error("Clone must not share storage")
	}
}

func TestAttrSetMatchesFilter(t *testing.T) {
	s := NumAttrs(map[string]float64{"A1": 2.5, "A2": 9})
	f := filter.MustParse("A1 < 3 && A2 < 10")
	if !f.Match(s) {
		t.Error("filter should match attr set")
	}
}

func TestNumAttrs(t *testing.T) {
	s := NumAttrs(map[string]float64{"z": 1, "a": 2, "m": 3})
	all := s.All()
	if all[0].Name != "a" || all[1].Name != "m" || all[2].Name != "z" {
		t.Errorf("NumAttrs should sort names: %v", s)
	}
}

func TestAttrSetString(t *testing.T) {
	s := NewAttrSet(Attr{"A1", filter.Num(3.5)}, Attr{"tag", filter.Str("hot")})
	want := `{A1=3.5, tag="hot"}`
	if s.String() != want {
		t.Errorf("String = %q, want %q", s.String(), want)
	}
}

func TestSubscriptionString(t *testing.T) {
	s := &Subscription{ID: 3, Edge: 17, Filter: filter.MustParse("A1<5"),
		Deadline: 10 * vtime.Second, Price: 3}
	got := s.String()
	if got == "" || math.IsNaN(s.Price) {
		t.Errorf("String = %q", got)
	}
}
