// Package sig defines the vocabulary of the media-control signaling
// protocol of Zave & Cheung, "Compositional Control of IP Media"
// (CoNEXT 2006), Section VI: tunnel signals (open, oack, close,
// closeack, describe, select), the descriptor and selector records they
// carry, media and codec names, and the channel-scope meta-signals of
// Section III-A.
//
// Everything in this package is a plain value with no behavior beyond
// construction, comparison, and encoding; protocol state lives in
// package slot and policy lives in package core.
package sig

import (
	"fmt"
	"strings"
)

// Medium names a kind of media carried by a channel, such as "audio" or
// "video" (paper Section III-B). Media may be subdivided arbitrarily:
// "audio-fr" or "video-lo" are legal mediums.
type Medium string

// Common mediums used throughout the examples and tests.
const (
	Audio Medium = "audio"
	Video Medium = "video"
)

// Codec names a data format for a medium (paper Section VI-A). G.726 is
// a lower-fidelity, lower-bandwidth audio codec; G.711 is a
// higher-fidelity one, approximately equivalent to circuit-switched
// telephony.
type Codec string

// NoMedia is the distinguished pseudo-codec indicating no media
// transmission (paper Section VI-A). A descriptor whose codec list
// reduces to NoMedia expresses muteIn; a selector carrying NoMedia
// expresses muteOut.
const NoMedia Codec = "noMedia"

// Audio and video codecs used in examples and tests.
const (
	G711 Codec = "G711" // high-fidelity audio
	G726 Codec = "G726" // low-bandwidth audio
	G729 Codec = "G729" // very low-bandwidth audio
	H263 Codec = "H263" // video
	H264 Codec = "H264" // video
)

// DescID identifies a descriptor so that a selector can declare which
// descriptor it answers (the numbered descriptors/selectors of paper
// Figure 10). Origin scopes the sequence to the box or endpoint that
// produced the descriptor, so IDs are globally unambiguous without any
// global allocator — a requirement of the model checker, which must
// allocate IDs deterministically inside explored states.
type DescID struct {
	Origin string // producing endpoint or box, e.g. device name
	Seq    uint32 // per-origin sequence, bumped when content changes
}

// IsZero reports whether the ID is unset.
func (id DescID) IsZero() bool { return id.Origin == "" && id.Seq == 0 }

func (id DescID) String() string {
	if id.IsZero() {
		return "desc?"
	}
	return fmt.Sprintf("%s#%d", id.Origin, id.Seq)
}

// Descriptor is a record in which an endpoint describes itself as a
// receiver of media (paper Section VI-B): an IP address, a port number,
// and a priority-ordered list of codecs it can handle. If the endpoint
// does not wish to receive media (muteIn), the descriptor offers no
// real codec and NoMedia() reports true.
type Descriptor struct {
	ID     DescID
	Addr   string  // receiving IP address (empty for noMedia descriptors)
	Port   int     // receiving port
	Codecs []Codec // priority-ordered; empty or {NoMedia} means muteIn
}

// NoMedia reports whether the descriptor declines all media: it offers
// no codec other than the NoMedia pseudo-codec.
func (d Descriptor) NoMedia() bool {
	for _, c := range d.Codecs {
		if c != NoMedia {
			return false
		}
	}
	return true
}

// Offers reports whether the descriptor offers codec c.
func (d Descriptor) Offers(c Codec) bool {
	for _, dc := range d.Codecs {
		if dc == c {
			return true
		}
	}
	return false
}

// Equal reports whether two descriptors are identical, including ID.
func (d Descriptor) Equal(o Descriptor) bool {
	if d.ID != o.ID || d.Addr != o.Addr || d.Port != o.Port || len(d.Codecs) != len(o.Codecs) {
		return false
	}
	for i := range d.Codecs {
		if d.Codecs[i] != o.Codecs[i] {
			return false
		}
	}
	return true
}

// SameContent reports whether two descriptors describe the same
// receiver, ignoring ID. Endpoints use this to re-issue an unchanged
// descriptor under its existing ID.
func (d Descriptor) SameContent(o Descriptor) bool {
	d.ID, o.ID = DescID{}, DescID{}
	return d.Equal(o)
}

func (d Descriptor) String() string {
	cs := make([]string, len(d.Codecs))
	for i, c := range d.Codecs {
		cs[i] = string(c)
	}
	if d.NoMedia() {
		return fmt.Sprintf("desc(%s noMedia)", d.ID)
	}
	return fmt.Sprintf("desc(%s %s:%d [%s])", d.ID, d.Addr, d.Port, strings.Join(cs, ","))
}

// NoMediaDescriptor builds a descriptor that declines all media, as
// used by application-server goal objects, which mute media flow in
// both directions (paper Section IV-A). Every such descriptor shares
// one codec list: like the decoder's interned lists, Descriptor.Codecs
// is read-only.
func NoMediaDescriptor(id DescID) Descriptor {
	return Descriptor{ID: id, Codecs: noMediaCodecs}
}

var noMediaCodecs = []Codec{NoMedia}

// Selector is a record in which an endpoint declares its intention to
// send to the endpoint described by a descriptor (paper Section VI-B).
// It identifies the descriptor it answers, gives the sender's IP
// address and port, and names the single codec the sender will use —
// NoMedia if the sender does not wish to send (muteOut).
type Selector struct {
	Answers DescID // the descriptor this selector responds to
	Addr    string // sending IP address
	Port    int    // sending port
	Codec   Codec  // single chosen codec, or NoMedia
}

// NoMedia reports whether the selector declines to send media.
func (s Selector) NoMedia() bool { return s.Codec == NoMedia || s.Codec == "" }

func (s Selector) String() string {
	if s.NoMedia() {
		return fmt.Sprintf("sel(->%s noMedia)", s.Answers)
	}
	return fmt.Sprintf("sel(->%s %s from %s:%d)", s.Answers, s.Codec, s.Addr, s.Port)
}

// AnswerDescriptor computes the selector with which a sender at
// addr:port answers descriptor d, given the priority-ordered list of
// codecs the sender is able to transmit and whether it currently wants
// to send (muteOut false). Per paper Section VI-B, the sender chooses
// the highest-priority codec in the descriptor that it is able and
// willing to send, and the only legal response to a noMedia descriptor
// is a noMedia selector.
func AnswerDescriptor(d Descriptor, addr string, port int, sendable []Codec, muteOut bool) Selector {
	sel := Selector{Answers: d.ID, Addr: addr, Port: port, Codec: NoMedia}
	if muteOut || d.NoMedia() {
		return sel
	}
	for _, c := range d.Codecs { // descriptor order is the priority order
		if c == NoMedia {
			continue
		}
		for _, s := range sendable {
			if s == c {
				sel.Codec = c
				return sel
			}
		}
	}
	return sel
}

// Kind enumerates the six tunnel signals of the protocol (paper
// Figure 9).
type Kind uint8

// The tunnel signal kinds.
const (
	KindInvalid  Kind = iota
	KindOpen          // request a media channel; carries medium + descriptor
	KindOack          // affirmative answer to open; carries descriptor
	KindClose         // close or reject the channel
	KindCloseAck      // acknowledge a close
	KindDescribe      // new descriptor for the sender as receiver of media
	KindSelect        // selector answering a descriptor
)

var kindNames = [...]string{"invalid", "open", "oack", "close", "closeack", "describe", "select"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Signal is one protocol message within a tunnel. Only the fields
// relevant to the Kind are meaningful: Medium and Desc for open, Desc
// for oack and describe, Sel for select, nothing for close/closeack.
type Signal struct {
	Kind   Kind
	Medium Medium
	Desc   Descriptor
	Sel    Selector
}

// Constructors for each signal kind.

// Open builds an open signal requesting a channel of the given medium,
// describing the opener as a receiver.
func Open(m Medium, d Descriptor) Signal { return Signal{Kind: KindOpen, Medium: m, Desc: d} }

// Oack builds an affirmative answer to an open, describing the acceptor
// as a receiver.
func Oack(d Descriptor) Signal { return Signal{Kind: KindOack, Desc: d} }

// Close builds a close (or reject) signal.
func Close() Signal { return Signal{Kind: KindClose} }

// CloseAck acknowledges a close.
func CloseAck() Signal { return Signal{Kind: KindCloseAck} }

// Describe carries a fresh descriptor for the sender as a receiver.
func Describe(d Descriptor) Signal { return Signal{Kind: KindDescribe, Desc: d} }

// Select carries a selector answering a previously received descriptor.
func Select(s Selector) Signal { return Signal{Kind: KindSelect, Sel: s} }

func (g Signal) String() string {
	switch g.Kind {
	case KindOpen:
		return fmt.Sprintf("open(%s, %s)", g.Medium, g.Desc)
	case KindOack:
		return fmt.Sprintf("oack(%s)", g.Desc)
	case KindDescribe:
		return fmt.Sprintf("describe(%s)", g.Desc)
	case KindSelect:
		return fmt.Sprintf("select(%s)", g.Sel)
	default:
		return g.Kind.String()
	}
}

// MetaKind enumerates meta-signals, which refer to a signaling channel
// as a whole and can affect all the tunnels within it (paper Section
// III-A).
type MetaKind uint8

// The meta-signal kinds.
const (
	MetaInvalid     MetaKind = iota
	MetaSetup                // first message on a new signaling channel
	MetaTeardown             // destroy the signaling channel and all its tunnels
	MetaAvailable            // the intended far endpoint is available
	MetaUnavailable          // the intended far endpoint is unavailable
	MetaApp                  // application-defined (e.g. "paid", "click")
)

var metaNames = [...]string{"invalid", "setup", "teardown", "available", "unavailable", "app"}

func (k MetaKind) String() string {
	if int(k) < len(metaNames) {
		return metaNames[k]
	}
	return fmt.Sprintf("meta(%d)", uint8(k))
}

// Attr is one key/value attribute of a meta-signal. Attributes live in
// a flat sorted slice rather than a map: metas are tiny (a handful of
// attrs), so a sorted slice is both smaller and faster than a map, it
// encodes deterministically without per-envelope key sorting, and the
// decode path can recycle one backing array across envelopes.
type Attr struct {
	Key, Val string
}

// Meta is a meta-signal. App carries an application-defined event name
// for MetaApp; Attrs carries optional key/value payload, sorted by key
// with unique keys (the canonical wire order). Build it with NewAttrs
// or Set, which maintain the ordering invariant; hand-built literals
// must list attrs in ascending key order or the encoders reject them.
type Meta struct {
	Kind  MetaKind
	App   string
	Attrs []Attr

	// pooled marks a Meta owned by the decode pool; Envelope.Release
	// recycles it. Always false on user-constructed metas.
	pooled bool
}

// NewAttrs builds a sorted attribute slice from alternating key/value
// pairs; it panics on an odd count. Later duplicates win, matching the
// old map semantics.
func NewAttrs(kv ...string) []Attr {
	if len(kv)%2 != 0 {
		panic("sig.NewAttrs: odd key/value count")
	}
	attrs := make([]Attr, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		attrs = SetAttr(attrs, kv[i], kv[i+1])
	}
	return attrs
}

// SetAttr sets key=val in a sorted attribute slice, inserting or
// replacing in place, and returns the updated slice (append idiom).
func SetAttr(attrs []Attr, key, val string) []Attr {
	i := searchAttrs(attrs, key)
	if i < len(attrs) && attrs[i].Key == key {
		attrs[i].Val = val
		return attrs
	}
	attrs = append(attrs, Attr{})
	copy(attrs[i+1:], attrs[i:])
	attrs[i] = Attr{Key: key, Val: val}
	return attrs
}

// searchAttrs returns the insertion index of key (binary search; attr
// lists are tiny, but sortedness makes this deterministic).
func searchAttrs(attrs []Attr, key string) int {
	lo, hi := 0, len(attrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if attrs[mid].Key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// attrsSorted reports whether attrs is in canonical order: strictly
// ascending keys (sorted, no duplicates).
func attrsSorted(attrs []Attr) bool {
	for i := 1; i < len(attrs); i++ {
		if attrs[i-1].Key >= attrs[i].Key {
			return false
		}
	}
	return true
}

// Get returns the value for key, or "" if absent.
func (m *Meta) Get(key string) string {
	v, _ := m.Lookup(key)
	return v
}

// Lookup returns the value for key and whether it is present.
func (m *Meta) Lookup(key string) (string, bool) {
	if m == nil {
		return "", false
	}
	if i := searchAttrs(m.Attrs, key); i < len(m.Attrs) && m.Attrs[i].Key == key {
		return m.Attrs[i].Val, true
	}
	return "", false
}

// Set sets key=val, inserting or replacing while keeping the canonical
// sorted order.
func (m *Meta) Set(key, val string) {
	m.Attrs = SetAttr(m.Attrs, key, val)
}

// Len reports the number of attributes.
func (m *Meta) Len() int {
	if m == nil {
		return 0
	}
	return len(m.Attrs)
}

// Equal reports whether two metas carry the same kind, app, and
// attributes. It ignores decode-pool ownership.
func (m *Meta) Equal(o *Meta) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.Kind != o.Kind || m.App != o.App || len(m.Attrs) != len(o.Attrs) {
		return false
	}
	for i := range m.Attrs {
		if m.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	return true
}

func (m Meta) String() string {
	if m.Kind == MetaApp {
		return fmt.Sprintf("meta:app(%s)", m.App)
	}
	return "meta:" + m.Kind.String()
}

// Envelope is the unit of traffic on a signaling channel: either a
// tunnel signal addressed to one tunnel, or a meta-signal for the
// channel as a whole (Meta non-nil).
//
// Seq is the channel-scope sequence number stamped by the reliable
// transport layer; zero means unsequenced. Chan is the logical channel
// id stamped by the transport multiplexer when the envelope rides a
// shared carrier; zero means the envelope belongs to the channel it is
// sent on. Both use distinct wire tags, so the encoding of envelopes
// with neither — the only kind the box core and the model checker ever
// produce — is byte-for-byte the legacy format. Chan sits in the
// padding after Seq, so it adds no bytes to an envelope copied by
// value (TestEnvelopeSize).
type Envelope struct {
	Tunnel int    // tunnel index within the channel; ignored for meta-signals
	Seq    uint32 // retransmission sequence number; 0 = unsequenced
	Chan   uint32 // multiplexed channel id; 0 = not multiplexed
	Sig    Signal
	Meta   *Meta
}

// IsMeta reports whether the envelope carries a meta-signal.
func (e Envelope) IsMeta() bool { return e.Meta != nil }

func (e Envelope) String() string {
	var s string
	switch {
	case e.IsMeta() && e.Seq != 0:
		s = fmt.Sprintf("#%d:%s", e.Seq, e.Meta)
	case e.IsMeta():
		s = e.Meta.String()
	case e.Seq != 0:
		s = fmt.Sprintf("#%d:t%d:%s", e.Seq, e.Tunnel, e.Sig)
	default:
		s = fmt.Sprintf("t%d:%s", e.Tunnel, e.Sig)
	}
	if e.Chan != 0 {
		return fmt.Sprintf("c%d/%s", e.Chan, s)
	}
	return s
}
