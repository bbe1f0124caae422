package msg

// Slab sizes: a subscriber's read loop carves sixteen messages, their
// attributes and their payloads from one allocation each, so a delivery
// costs about an eighth of an allocation on the paper's two-attribute
// workload. Together the three arrays take under 8 KiB
// (TestSlabHoldsUnder8KiB), the most a slab holds once a consumer has
// dropped every message carved from it.
const (
	slabMessages = 16
	slabAttrs    = 32
	slabPayload  = 4 << 10
)

// Slab is the memory a connection's decoder carves messages from for
// consumers that keep them: an array of Messages, one of Attrs handed
// out as capacity-capped windows (AttrSet.UseBuffer), and a payload
// chunk handed out as b[:n:n] windows. A message never shares a window,
// so a consumer that grows its attributes or appends to its payload
// reallocates rather than writing into a neighbour; a kept message
// keeps the arrays it was carved from alive. An attribute set over a
// quarter of the attribute array, or a payload over a quarter of the
// chunk, gets its own allocation instead. Messages from a slab are not
// pooled: Retain and Release are no-ops on them, and none is reused.
// The zero value is an empty slab; it allocates its arrays as messages
// need them. It is not safe for concurrent use.
type Slab struct {
	msgs    []Message
	attrs   []Attr
	payload []byte
}

// DecodeSlab decodes a message body into a message carved from s, with
// the parser DecodeMessageInto uses; the payload is copied into s, so
// body may be reused at once. A body that fails to decode takes no
// message from s.
func (d *Decoder) DecodeSlab(s *Slab, body []byte) (*Message, error) {
	if len(s.msgs) == 0 {
		s.msgs = make([]Message, slabMessages)
	}
	m := &s.msgs[0]
	payload, err := d.decode(m, body, s)
	if err != nil {
		*m = Message{}
		return nil, err
	}
	s.msgs = s.msgs[1:]
	m.Payload = s.copyPayload(payload)
	return m, nil
}

// attrWindow carves an empty window of capacity n for one message's
// attributes.
func (s *Slab) attrWindow(n int) []Attr {
	if n > slabAttrs/4 {
		return make([]Attr, 0, n)
	}
	if len(s.attrs) < n {
		s.attrs = make([]Attr, slabAttrs)
	}
	w := s.attrs[:0:n]
	s.attrs = s.attrs[n:]
	return w
}

// copyPayload copies p into a window carved from s, nil when p is empty.
func (s *Slab) copyPayload(p []byte) []byte {
	n := len(p)
	var w []byte
	switch {
	case n == 0:
		return nil
	case n > slabPayload/4:
		w = make([]byte, n)
	default:
		if len(s.payload) < n {
			s.payload = make([]byte, slabPayload)
		}
		w, s.payload = s.payload[:n:n], s.payload[n:]
	}
	copy(w, p)
	return w
}
