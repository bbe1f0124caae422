package msg

import (
	"sort"
	"strings"

	"bdps/internal/filter"
)

// Attr is one named attribute of a message.
type Attr struct {
	Name string
	Val  filter.Value
}

// AttrSet is an ordered set of attributes, sorted by name. Messages in the
// paper's workload carry two numeric attributes; the set supports any
// number and both value kinds. The zero value is an empty, usable set.
type AttrSet struct {
	attrs []Attr
}

// NewAttrSet builds a set from the given attributes. Later duplicates of
// the same name win.
func NewAttrSet(attrs ...Attr) AttrSet {
	var s AttrSet
	for _, a := range attrs {
		s.Set(a.Name, a.Val)
	}
	return s
}

// NumAttrs is a convenience constructor for all-numeric attribute sets,
// such as the paper's {A1=x1, A2=x2} heads.
func NumAttrs(kv map[string]float64) AttrSet {
	var s AttrSet
	for k, v := range kv {
		s.Set(k, filter.Num(v))
	}
	return s
}

// Reset empties the set, keeping the backing array for reuse.
func (s *AttrSet) Reset() { s.attrs = s.attrs[:0] }

// UseBuffer empties the set and makes buf's array its backing store, so
// Set fills buf without allocating while it has capacity; the set then
// aliases buf. Slab allocators hand each set a capacity-capped window of
// one shared array.
func (s *AttrSet) UseBuffer(buf []Attr) { s.attrs = buf[:0] }

// Grow ensures capacity for n attributes, so a decoder that knows the
// count up front pays one backing allocation instead of append growth.
func (s *AttrSet) Grow(n int) {
	if cap(s.attrs) < n {
		grown := make([]Attr, len(s.attrs), n)
		copy(grown, s.attrs)
		s.attrs = grown
	}
}

// Set inserts or replaces an attribute.
func (s *AttrSet) Set(name string, v filter.Value) {
	i := sort.Search(len(s.attrs), func(i int) bool { return s.attrs[i].Name >= name })
	if i < len(s.attrs) && s.attrs[i].Name == name {
		s.attrs[i].Val = v
		return
	}
	s.attrs = append(s.attrs, Attr{})
	copy(s.attrs[i+1:], s.attrs[i:])
	s.attrs[i] = Attr{Name: name, Val: v}
}

// Attr implements filter.Attrs.
func (s AttrSet) Attr(name string) (filter.Value, bool) {
	n := len(s.attrs)
	if n <= 8 {
		for _, a := range s.attrs {
			if a.Name == name {
				return a.Val, true
			}
		}
		return filter.Value{}, false
	}
	i := sort.Search(n, func(i int) bool { return s.attrs[i].Name >= name })
	if i < n && s.attrs[i].Name == name {
		return s.attrs[i].Val, true
	}
	return filter.Value{}, false
}

// Len returns the number of attributes.
func (s AttrSet) Len() int { return len(s.attrs) }

// Each implements filter.Iterable, visiting attributes in name order.
func (s AttrSet) Each(fn func(name string, v filter.Value)) {
	for _, a := range s.attrs {
		fn(a.Name, a.Val)
	}
}

// All returns the attributes in name order. The slice is shared; callers
// must not mutate it.
func (s AttrSet) All() []Attr { return s.attrs }

// Clone returns a deep copy of the set.
func (s AttrSet) Clone() AttrSet {
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	return AttrSet{attrs: out}
}

// String implements fmt.Stringer, rendering "{A1=3.2, A2=7}".
func (s AttrSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		b.WriteByte('=')
		b.WriteString(a.Val.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Interface conformance checks. Hot paths pass *AttrSet: boxing the
// pointer into the interface is free, where boxing the value copies the
// set to the heap on every call.
var (
	_ filter.Attrs    = AttrSet{}
	_ filter.Iterable = AttrSet{}
	_ filter.Attrs    = (*AttrSet)(nil)
	_ filter.Iterable = (*AttrSet)(nil)
)
