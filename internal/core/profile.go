// Media profiles: how a goal object describes its box as a receiver of
// media and answers descriptors as a sender.
package core

import (
	"ipmedia/internal/sig"
)

// Profile supplies the descriptors and selectors a goal object sends.
// A genuine media endpoint uses an EndpointProfile carrying its real
// address and codecs; a slot in an application server "may be
// masquerading as a media endpoint, but it is not a genuine media
// endpoint, and can neither send nor receive media packets fruitfully"
// (paper Section IV-A), so servers use a ServerProfile that mutes
// media flow in both directions.
type Profile interface {
	// Describe returns the current self-description as a receiver of
	// media. Repeated calls return the same descriptor, by pointer,
	// until the content changes, which keeps protocol state spaces
	// finite. The descriptor is shared and must not be written.
	Describe() *sig.Descriptor
	// Answer builds the selector with which this box answers
	// descriptor d.
	Answer(d *sig.Descriptor) sig.Selector
	// Clone copies the profile; the copy shares the immutable
	// descriptors the original issued.
	Clone() Profile
	// AppendEncode appends a deterministic state fingerprint to dst and
	// returns the extended slice.
	AppendEncode(dst []byte) []byte
}

// ServerProfile is the profile of an application-server goal object:
// it declines media in both directions.
type ServerProfile struct {
	// Name scopes the descriptor ID, usually the box name.
	Name string
}

// Describe returns the server's constant noMedia descriptor: one shared
// record per server name, so asking again allocates nothing.
func (p ServerProfile) Describe() *sig.Descriptor {
	return sig.NoMediaDescriptor(sig.DescID{Origin: p.Name, Seq: 1})
}

// Answer answers any descriptor with a noMedia selector.
func (p ServerProfile) Answer(d *sig.Descriptor) sig.Selector {
	return sig.Selector{Answers: d.ID, Codec: sig.NoMedia}
}

// Clone returns the profile itself; it is immutable.
func (p ServerProfile) Clone() Profile { return p }

// AppendEncode appends the profile fingerprint.
func (p ServerProfile) AppendEncode(dst []byte) []byte {
	dst = append(dst, "srv:"...)
	return append(dst, p.Name...)
}

// EndpointProfile is the profile of a genuine media endpoint: a real
// receiving address, priority-ordered receive and send codec lists,
// and the user's current mute choices (paper Figure 5).
type EndpointProfile struct {
	Origin     string // descriptor ID scope, usually the device name
	Addr       string
	Port       int
	RecvCodecs []sig.Codec // priority-ordered codecs this endpoint can receive
	SendCodecs []sig.Codec // codecs this endpoint can transmit
	MuteIn     bool        // user does not wish to receive media
	MuteOut    bool        // user does not wish to send media

	seq    uint32
	issued []*sig.Descriptor // every distinct content ever described
}

// NewEndpointProfile builds a profile for a device at addr:port.
func NewEndpointProfile(origin, addr string, port int, recv, send []sig.Codec) *EndpointProfile {
	return &EndpointProfile{Origin: origin, Addr: addr, Port: port, RecvCodecs: recv, SendCodecs: send}
}

// noMediaCodecs is the codec list of a muted receiver.
var noMediaCodecs = []sig.Codec{sig.NoMedia}

// desired builds the descriptor content implied by the current state,
// without an ID. It is for comparing: its codec list is the profile's
// own (or the shared muted one), not a copy.
func (p *EndpointProfile) desired() sig.Descriptor {
	if p.MuteIn {
		return sig.Descriptor{Codecs: noMediaCodecs}
	}
	return sig.Descriptor{Addr: p.Addr, Port: p.Port, Codecs: p.RecvCodecs}
}

// Describe returns the endpoint's current descriptor. Descriptor IDs
// are a function of content: re-describing previously seen content
// returns the descriptor issued for it, ID and record both. This keeps
// protocol state spaces finite under openslot retry loops and mute
// toggles — a requirement of the model checker — and is harmless live,
// since a selector answering the ID still answers exactly this
// content. A descriptor is built once, when its content is first
// described, with its own copy of the codec list, so later edits of
// RecvCodecs cannot reach it.
func (p *EndpointProfile) Describe() *sig.Descriptor {
	want := p.desired()
	for _, d := range p.issued {
		if want.SameContent(d) {
			return d
		}
	}
	p.seq++
	d := new(sig.Descriptor)
	*d = want
	d.ID = sig.DescID{Origin: p.Origin, Seq: p.seq}
	d.Codecs = append([]sig.Codec(nil), want.Codecs...)
	p.issued = append(p.issued, d)
	return d
}

// Answer answers descriptor d per the unilateral codec-choice rule of
// paper Section VI-B.
func (p *EndpointProfile) Answer(d *sig.Descriptor) sig.Selector {
	return sig.AnswerDescriptor(d, p.Addr, p.Port, p.SendCodecs, p.MuteOut)
}

// SetMuteIn updates muteIn; it reports whether the value changed.
func (p *EndpointProfile) SetMuteIn(v bool) bool {
	if p.MuteIn == v {
		return false
	}
	p.MuteIn = v
	return true
}

// SetMuteOut updates muteOut; it reports whether the value changed.
func (p *EndpointProfile) SetMuteOut(v bool) bool {
	if p.MuteOut == v {
		return false
	}
	p.MuteOut = v
	return true
}

// Clone copies the profile. The copy shares the codec lists and the
// issued descriptors, which nothing writes, but gets its own issued
// slice, so that two clones describing new content never append into
// one backing array.
func (p *EndpointProfile) Clone() Profile {
	c := *p
	c.issued = append([]*sig.Descriptor(nil), p.issued...)
	return &c
}

// AppendEncode appends the profile fingerprint.
func (p *EndpointProfile) AppendEncode(dst []byte) []byte {
	dst = append(dst, "ep:"...)
	dst = append(dst, p.Origin...)
	dst = append(dst, p.Addr...)
	dst = append(dst, byte(p.Port>>8), byte(p.Port))
	for _, c := range p.RecvCodecs {
		dst = append(dst, c...)
		dst = append(dst, ',')
	}
	dst = append(dst, ';')
	for _, c := range p.SendCodecs {
		dst = append(dst, c...)
		dst = append(dst, ',')
	}
	if p.MuteIn {
		dst = append(dst, 'I')
	}
	if p.MuteOut {
		dst = append(dst, 'O')
	}
	return append(dst, byte(p.seq))
}
