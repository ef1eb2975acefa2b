// Wire encoding for envelopes. Signaling channels between physical
// components run over TCP (paper Section I); this file defines the
// framed binary format used by the TCP transport. The same
// deterministic encoding doubles as the state fingerprint of in-flight
// signals inside the model checker.
//
// The encode path is append-style: every encoder appends to a
// caller-provided []byte and returns the extended slice, so both the
// TCP hot path (via a sync.Pool of frame buffers in WriteFrame) and
// the model checker's per-state fingerprinting run without allocating.
// The decode path reuses the caller's payload buffer and interns the
// protocol's well-known strings (codec and medium names), so
// steady-state signaling allocates only for genuinely novel strings.
package sig

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Frame format: every envelope is framed as
//
//	uint32 length | payload
//
// and the payload is
//
//	tag | [uint32 seq] | [uint32 chan] | body
//
// where body is the signal (uint32 tunnel, kind byte, fields) or the
// meta-signal (kind byte, app, attrs), strings are uint16-length
// prefixed, and all integers are big-endian. The tag says which of the
// optional header words follow: tag-1 is a bit set of meta (1), seq (2)
// and chan (4), so tags 1 and 2 are the legacy unsequenced signal and
// meta, 3 and 4 add the reliable layer's sequence number, and 5 to 8
// add the multiplexer's channel id to each of those. A header word is
// present exactly when its field is non-zero, so every envelope has one
// encoding and a tag carrying a zero seq or chan is rejected.

const (
	// MaxFrame bounds the size of a single envelope on the wire. Media
	// control signals are tiny; anything near this limit indicates a
	// corrupted stream.
	MaxFrame = 64 << 10

	// MaxCodecs bounds the codec list of a descriptor on the wire. The
	// decoder has always rejected longer lists; the encoder now rejects
	// them too, so every encodable envelope is decodable (encode/decode
	// symmetry).
	MaxCodecs = 64

	// MaxAttrs bounds the attribute map of a meta-signal on the wire,
	// symmetric with the decoder's limit.
	MaxAttrs = 1024

	// maxString is the largest string representable by the uint16
	// length prefix.
	maxString = 1<<16 - 1

	tagSignal byte = 1
	tagMeta   byte = 2
	// Sequenced variants: the payload is prefixed with the envelope's
	// uint32 sequence number, stamped by the reliable transport layer.
	// Unsequenced envelopes keep the legacy tags, so the format seen by
	// the model checker's fingerprints and by non-reliable channels is
	// unchanged.
	tagSignalSeq byte = 3
	tagMetaSeq   byte = 4
	// Channel-tagged variants of the four above: the header also carries
	// the envelope's uint32 multiplexer channel id, after the sequence
	// number if there is one.
	tagSignalChan    byte = 5
	tagMetaChan      byte = 6
	tagSignalSeqChan byte = 7
	tagMetaSeqChan   byte = 8

	// Bits of tag-1.
	tagBitMeta = 1
	tagBitSeq  = 2
	tagBitChan = 4
)

var (
	// ErrFrameTooLarge reports an incoming frame exceeding MaxFrame.
	ErrFrameTooLarge = errors.New("sig: frame exceeds maximum size")
	// ErrCorrupt reports an undecodable payload.
	ErrCorrupt = errors.New("sig: corrupt envelope encoding")
	// ErrUnencodable reports an envelope that cannot be represented in
	// the wire format (too many codecs or attributes, or an oversized
	// string). It wraps ErrCorrupt: emitting such an envelope would
	// corrupt the stream for the peer, so the encoders reject it
	// instead of silently truncating.
	ErrUnencodable = fmt.Errorf("%w: unencodable envelope", ErrCorrupt)
)

// ---------------------------------------------------------------------
// Append-style encoders.

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// appendString appends the uint16 length prefix and the bytes of s.
// Strings longer than maxString are rejected by Envelope.Validate on
// the wire paths; the model checker's fingerprint path never produces
// them.
func appendString(dst []byte, s string) []byte {
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...)
}

// AppendDescriptor appends the deterministic encoding of d to dst and
// returns the extended slice.
func AppendDescriptor(dst []byte, d Descriptor) []byte {
	dst = appendString(dst, d.ID.Origin)
	dst = appendU32(dst, d.ID.Seq)
	dst = appendString(dst, d.Addr)
	dst = appendU32(dst, uint32(d.Port))
	dst = appendU32(dst, uint32(len(d.Codecs)))
	for _, c := range d.Codecs {
		dst = appendString(dst, string(c))
	}
	return dst
}

// AppendSelector appends the deterministic encoding of s to dst and
// returns the extended slice.
func AppendSelector(dst []byte, s Selector) []byte {
	dst = appendString(dst, s.Answers.Origin)
	dst = appendU32(dst, s.Answers.Seq)
	dst = appendString(dst, s.Addr)
	dst = appendU32(dst, uint32(s.Port))
	dst = appendString(dst, string(s.Codec))
	return dst
}

// AppendSignal appends the deterministic encoding of g to dst and
// returns the extended slice.
func AppendSignal(dst []byte, g Signal) []byte {
	dst = append(dst, byte(g.Kind))
	switch g.Kind {
	case KindOpen:
		dst = appendString(dst, string(g.Medium))
		dst = AppendDescriptor(dst, g.Desc)
	case KindOack, KindDescribe:
		dst = AppendDescriptor(dst, g.Desc)
	case KindSelect:
		dst = AppendSelector(dst, g.Sel)
	}
	return dst
}

// appendEnvelope appends the envelope payload encoding to dst. The
// envelope must already be validated.
func appendEnvelope(dst []byte, e Envelope) []byte {
	bits := byte(0)
	if e.IsMeta() {
		bits |= tagBitMeta
	}
	if e.Seq != 0 {
		bits |= tagBitSeq
	}
	if e.Chan != 0 {
		bits |= tagBitChan
	}
	dst = append(dst, 1+bits)
	if e.Seq != 0 {
		dst = appendU32(dst, e.Seq)
	}
	if e.Chan != 0 {
		dst = appendU32(dst, e.Chan)
	}
	if e.IsMeta() {
		dst = append(dst, byte(e.Meta.Kind))
		dst = appendString(dst, e.Meta.App)
		// Attrs are kept in canonical sorted order (Validate enforces
		// it), so the encoder emits them as-is: no per-envelope key
		// slice, no sorting — the encode path is allocation-free for
		// metas too.
		dst = appendU32(dst, uint32(len(e.Meta.Attrs)))
		for _, a := range e.Meta.Attrs {
			dst = appendString(dst, a.Key)
			dst = appendString(dst, a.Val)
		}
		return dst
	}
	dst = appendU32(dst, uint32(e.Tunnel))
	return AppendSignal(dst, e.Sig)
}

// ---------------------------------------------------------------------
// Encode-side validation: symmetric with the decoder's limits, so the
// encoders never emit bytes the decoders reject.

func validString(what, s string) error {
	if len(s) > maxString {
		return fmt.Errorf("%w: %s is %d bytes (max %d)", ErrUnencodable, what, len(s), maxString)
	}
	return nil
}

func (d Descriptor) validate() error {
	if len(d.Codecs) > MaxCodecs {
		return fmt.Errorf("%w: descriptor has %d codecs (max %d)", ErrUnencodable, len(d.Codecs), MaxCodecs)
	}
	if err := validString("descriptor origin", d.ID.Origin); err != nil {
		return err
	}
	if err := validString("descriptor addr", d.Addr); err != nil {
		return err
	}
	for _, c := range d.Codecs {
		if err := validString("codec name", string(c)); err != nil {
			return err
		}
	}
	return nil
}

func (s Selector) validate() error {
	if err := validString("selector origin", s.Answers.Origin); err != nil {
		return err
	}
	if err := validString("selector addr", s.Addr); err != nil {
		return err
	}
	return validString("codec name", string(s.Codec))
}

// Validate reports whether the envelope is representable in the wire
// format: at most MaxCodecs codecs per descriptor, at most MaxAttrs
// meta attributes, and no string longer than 64KiB-1. The encoders
// reject envelopes that fail validation, keeping encode and decode
// symmetric.
func (e Envelope) Validate() error {
	if e.IsMeta() {
		m := e.Meta
		if len(m.Attrs) > MaxAttrs {
			return fmt.Errorf("%w: meta-signal has %d attrs (max %d)", ErrUnencodable, len(m.Attrs), MaxAttrs)
		}
		if !attrsSorted(m.Attrs) {
			return fmt.Errorf("%w: meta attrs not in canonical order (sorted unique keys; build with NewAttrs or Set)", ErrUnencodable)
		}
		if err := validString("meta app", m.App); err != nil {
			return err
		}
		for _, a := range m.Attrs {
			if err := validString("attr key", a.Key); err != nil {
				return err
			}
			if err := validString("attr value", a.Val); err != nil {
				return err
			}
		}
		return nil
	}
	if e.Tunnel < 0 || int64(e.Tunnel) > int64(^uint32(0)) {
		return fmt.Errorf("%w: tunnel index %d out of range", ErrUnencodable, e.Tunnel)
	}
	g := e.Sig
	switch g.Kind {
	case KindOpen:
		if err := validString("medium", string(g.Medium)); err != nil {
			return err
		}
		return g.Desc.validate()
	case KindOack, KindDescribe:
		return g.Desc.validate()
	case KindSelect:
		return g.Sel.validate()
	case KindClose, KindCloseAck:
		return nil
	default:
		return fmt.Errorf("%w: unknown signal kind %d", ErrUnencodable, g.Kind)
	}
}

// AppendBinary validates the envelope and appends its payload encoding
// (without the length frame) to dst, returning the extended slice.
// This is the zero-allocation encode path: with a caller-managed
// buffer it performs no allocation for tunnel signals or meta-signals
// (attrs are stored pre-sorted, so no ordering scratch is needed).
func (e Envelope) AppendBinary(dst []byte) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return dst, err
	}
	return appendEnvelope(dst, e), nil
}

// Marshal encodes the envelope payload (without the length frame) into
// a fresh slice. It panics on an envelope that violates the wire
// limits; use AppendBinary to handle the error instead.
func (e Envelope) Marshal() []byte {
	p, err := e.AppendBinary(nil)
	if err != nil {
		panic(err)
	}
	return p
}

// ---------------------------------------------------------------------
// Decoders.

// wreader is a cursor over a payload slice; unlike bytes.Reader it
// lives on the stack.
type wreader struct {
	p   []byte
	off int
}

func (r *wreader) u8() (byte, error) {
	if r.off >= len(r.p) {
		return 0, ErrCorrupt
	}
	b := r.p[r.off]
	r.off++
	return b, nil
}

func (r *wreader) u32() (uint32, error) {
	if r.off+4 > len(r.p) {
		return 0, ErrCorrupt
	}
	v := binary.BigEndian.Uint32(r.p[r.off:])
	r.off += 4
	return v, nil
}

// strBytes returns the raw bytes of the next length-prefixed string,
// aliasing the payload buffer (valid only until the caller's buffer is
// reused).
func (r *wreader) strBytes() ([]byte, error) {
	if r.off+2 > len(r.p) {
		return nil, ErrCorrupt
	}
	n := int(binary.BigEndian.Uint16(r.p[r.off:]))
	r.off += 2
	if r.off+n > len(r.p) {
		return nil, ErrCorrupt
	}
	b := r.p[r.off : r.off+n]
	r.off += n
	return b, nil
}

// str decodes the next string, resolving it through the intern table:
// every well-known protocol name and every seeded deployment name
// decodes to its shared canonical copy with no allocation; genuinely
// novel strings are copied out of the buffer.
func (r *wreader) str() (string, error) {
	b, err := r.strBytes()
	if err != nil {
		return "", err
	}
	return defaultIntern.intern(b, false), nil
}

// strLearn is str for closed vocabularies (attr keys, app names):
// novel strings are additionally interned, bounded by the table
// capacity, so a vocabulary discovered at runtime converges to
// zero-alloc decoding.
func (r *wreader) strLearn() (string, error) {
	b, err := r.strBytes()
	if err != nil {
		return "", err
	}
	return defaultIntern.intern(b, true), nil
}

func decodeDescriptor(r *wreader) (Descriptor, error) {
	var d Descriptor
	var err error
	if d.ID.Origin, err = r.str(); err != nil {
		return d, err
	}
	if d.ID.Seq, err = r.u32(); err != nil {
		return d, err
	}
	if d.Addr, err = r.str(); err != nil {
		return d, err
	}
	port, err := r.u32()
	if err != nil {
		return d, err
	}
	d.Port = int(port)
	n, err := r.u32()
	if err != nil {
		return d, err
	}
	if n > MaxCodecs {
		return d, ErrCorrupt
	}
	if n > 0 {
		if d.Codecs, err = decodeCodecList(r, int(n)); err != nil {
			return d, err
		}
	}
	return d, nil
}

// decodeCodecList decodes n length-prefixed codec names. Whole lists
// are interned keyed by their wire region: descriptors carry one of a
// handful of priority lists, so the steady state resolves the region
// to a shared immutable slice without allocating. Callers must not
// mutate decoded Codecs.
func decodeCodecList(r *wreader, n int) ([]Codec, error) {
	start := r.off
	for i := 0; i < n; i++ {
		if _, err := r.strBytes(); err != nil {
			return nil, err
		}
	}
	region := r.p[start:r.off]
	if cs, ok := (*codecLists.table.Load())[string(region)]; ok {
		return cs, nil
	}
	// First sight of this list: parse it for real and learn it.
	cs := make([]Codec, n)
	rr := wreader{p: region}
	for i := range cs {
		s, err := rr.str()
		if err != nil {
			return nil, err
		}
		cs[i] = Codec(s)
	}
	return codecLists.add(region, cs), nil
}

func decodeSelector(r *wreader) (Selector, error) {
	var s Selector
	var err error
	if s.Answers.Origin, err = r.str(); err != nil {
		return s, err
	}
	if s.Answers.Seq, err = r.u32(); err != nil {
		return s, err
	}
	if s.Addr, err = r.str(); err != nil {
		return s, err
	}
	port, err := r.u32()
	if err != nil {
		return s, err
	}
	s.Port = int(port)
	codec, err := r.str()
	if err != nil {
		return s, err
	}
	s.Codec = Codec(codec)
	return s, nil
}

func decodeSignal(r *wreader) (Signal, error) {
	var g Signal
	k, err := r.u8()
	if err != nil {
		return g, ErrCorrupt
	}
	g.Kind = Kind(k)
	switch g.Kind {
	case KindOpen:
		m, err := r.str()
		if err != nil {
			return g, err
		}
		g.Medium = Medium(m)
		if g.Desc, err = decodeDescriptor(r); err != nil {
			return g, err
		}
	case KindOack, KindDescribe:
		if g.Desc, err = decodeDescriptor(r); err != nil {
			return g, err
		}
	case KindSelect:
		if g.Sel, err = decodeSelector(r); err != nil {
			return g, err
		}
	case KindClose, KindCloseAck:
	default:
		return g, fmt.Errorf("%w: unknown signal kind %d", ErrCorrupt, k)
	}
	return g, nil
}

// UnmarshalEnvelope decodes an envelope payload produced by Marshal.
// The decoded envelope does not alias p; the caller may reuse the
// buffer for the next frame.
func UnmarshalEnvelope(p []byte) (Envelope, error) {
	r := wreader{p: p}
	tag, err := r.u8()
	if err != nil {
		return Envelope{}, ErrCorrupt
	}
	if tag < tagSignal || tag > tagMetaSeqChan {
		return Envelope{}, fmt.Errorf("%w: unknown envelope tag %d", ErrCorrupt, tag)
	}
	bits := tag - 1
	var seq, ch uint32
	if bits&tagBitSeq != 0 {
		if seq, err = r.u32(); err != nil {
			return Envelope{}, err
		}
		if seq == 0 {
			// A sequenced tag carrying sequence zero would re-encode with
			// the legacy tag; reject it so encoding stays canonical.
			return Envelope{}, ErrCorrupt
		}
	}
	if bits&tagBitChan != 0 {
		if ch, err = r.u32(); err != nil {
			return Envelope{}, err
		}
		if ch == 0 {
			return Envelope{}, ErrCorrupt // non-canonical, as for seq
		}
	}
	if bits&tagBitMeta == 0 {
		e := Envelope{Seq: seq, Chan: ch}
		t, err := r.u32()
		if err != nil {
			return e, err
		}
		e.Tunnel = int(t)
		if e.Sig, err = decodeSignal(&r); err != nil {
			return e, err
		}
		return e, nil
	}
	m, err := decodeMeta(&r)
	if err != nil {
		return Envelope{}, err
	}
	return Envelope{Seq: seq, Chan: ch, Meta: m}, nil
}

// decodeMeta decodes a meta-signal body into a frame borrowed from the
// decode pool, returning the frame to the pool on error.
func decodeMeta(r *wreader) (*Meta, error) {
	m := borrowMeta()
	k, err := r.u8()
	if err != nil {
		releaseMeta(m)
		return nil, ErrCorrupt
	}
	m.Kind = MetaKind(k)
	if m.App, err = r.strLearn(); err != nil {
		releaseMeta(m)
		return nil, err
	}
	n, err := r.u32()
	if err != nil || n > MaxAttrs {
		releaseMeta(m)
		if err == nil {
			err = ErrCorrupt
		}
		return nil, err
	}
	for i := uint32(0); i < n; i++ {
		// Keys are a closed vocabulary: learn them. Values are
		// open-ended: lookup only, so churning values (sequence
		// numbers, tokens) cannot squat the table.
		key, err := r.strLearn()
		if err != nil {
			releaseMeta(m)
			return nil, err
		}
		val, err := r.str()
		if err != nil {
			releaseMeta(m)
			return nil, err
		}
		// Enforce the canonical order the encoders emit (strictly
		// ascending keys): accepting any order would make
		// decode→re-encode non-identical.
		if i > 0 && m.Attrs[len(m.Attrs)-1].Key >= key {
			releaseMeta(m)
			return nil, fmt.Errorf("%w: meta attrs out of canonical order", ErrCorrupt)
		}
		m.Attrs = append(m.Attrs, Attr{Key: key, Val: val})
	}
	return m, nil
}

// ---------------------------------------------------------------------
// Pooled envelope lifetime.

// metaPool recycles the Meta records (and their attr backing arrays)
// built by UnmarshalEnvelope, so steady-state meta decoding allocates
// nothing. A decoded envelope's Meta is owned by the decode layer:
// whoever dispatches it calls Envelope.Release exactly once when the
// envelope is done, after which the Meta and its Attrs slice must not
// be touched. Individual attr *strings* are safe to retain — they are
// interned or freshly copied, never recycled.
var metaPool = sync.Pool{New: func() any { return &Meta{} }}

func borrowMeta() *Meta {
	m := metaPool.Get().(*Meta)
	m.pooled = true
	return m
}

// maxPooledAttrCap bounds the attr backing array retained by a pooled
// Meta, so one pathological MaxAttrs envelope cannot pin a large array
// in the pool forever.
const maxPooledAttrCap = 32

func releaseMeta(m *Meta) {
	m.Kind, m.App = MetaInvalid, ""
	if cap(m.Attrs) > maxPooledAttrCap {
		m.Attrs = nil
	}
	m.Attrs = m.Attrs[:0]
	m.pooled = false
	metaPool.Put(m)
}

// Release recycles the decode-owned state of an envelope produced by
// UnmarshalEnvelope (or FrameReader.ReadFrame, which decodes with it);
// it is a no-op for envelopes built by hand, whose Meta the application
// owns. Call it exactly once, when dispatch of the envelope is
// complete: afterwards the envelope's Meta pointer and Attrs slice are
// dead (attr strings previously read from it remain valid). Releasing
// is an optimization, not an obligation — an unreleased Meta is simply
// collected by the GC.
func (e *Envelope) Release() {
	if m := e.Meta; m != nil && m.pooled {
		e.Meta = nil
		releaseMeta(m)
	}
}

// ---------------------------------------------------------------------
// Framing.

// framePool recycles frame buffers across WriteFrame calls, so
// steady-state signaling encodes without allocating.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// WriteFrame writes a length-framed envelope to w. Header and payload
// are encoded into one pooled buffer and issued as a single Write, so
// a frame costs one syscall on a raw socket and zero allocations in
// steady state.
func WriteFrame(w io.Writer, e Envelope) error {
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	b := append((*bp)[:0], 0, 0, 0, 0) // length header, patched below
	b, err := e.AppendBinary(b)
	if err != nil {
		return err
	}
	*bp = b
	n := len(b) - 4
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[:4], uint32(n))
	_, err = w.Write(b)
	return err
}

// FrameReader reads length-framed envelopes from a stream. It reads as
// many bytes as the stream offers into one reused buffer and decodes
// frames out of it, so a burst of small frames costs one Read — one
// read(2) on a socket — rather than two per frame. Because it reads
// ahead, a stream must have exactly one FrameReader. It is not safe for
// concurrent use; the transport's reader goroutine owns it.
type FrameReader struct {
	r   io.Reader
	buf []byte // buf[off:] is read but not yet decoded
	off int
	err error // the stream's error, returned once the buffer runs dry
}

// NewFrameReader wraps r for frame-at-a-time reading, with a 512-byte
// buffer that grows only for a frame larger than it.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, 0, 512)}
}

// ReadFrame decodes the next envelope, reading from the stream only
// when the buffer holds no complete frame. The returned envelope does
// not alias the buffer. At the end of the stream it returns io.EOF
// between frames and io.ErrUnexpectedEOF inside one; a length prefix
// over MaxFrame returns ErrFrameTooLarge before any buffer grows.
func (fr *FrameReader) ReadFrame() (Envelope, error) {
	if err := fr.fill(4); err != nil {
		return Envelope{}, err
	}
	n := binary.BigEndian.Uint32(fr.buf[fr.off:])
	if n > MaxFrame {
		return Envelope{}, ErrFrameTooLarge
	}
	end := 4 + int(n)
	if err := fr.fill(end); err != nil {
		return Envelope{}, err
	}
	p := fr.buf[fr.off+4 : fr.off+end]
	fr.off += end
	return UnmarshalEnvelope(p)
}

// fill makes at least need bytes available past off. When they are not
// yet buffered it moves the partial frame to the front and reads into
// the rest of the buffer, growing it only if need exceeds its capacity.
func (fr *FrameReader) fill(need int) error {
	if len(fr.buf)-fr.off >= need {
		return nil
	}
	if fr.off > 0 {
		fr.buf = fr.buf[:copy(fr.buf, fr.buf[fr.off:])]
		fr.off = 0
	}
	if cap(fr.buf) < need {
		grown := make([]byte, len(fr.buf), max(need, 2*cap(fr.buf)))
		copy(grown, fr.buf)
		fr.buf = grown
	}
	for len(fr.buf) < need {
		if fr.err != nil {
			if fr.err == io.EOF && len(fr.buf) > 0 {
				return io.ErrUnexpectedEOF
			}
			return fr.err
		}
		var k int
		k, fr.err = fr.r.Read(fr.buf[len(fr.buf):cap(fr.buf)])
		fr.buf = fr.buf[:len(fr.buf)+k]
	}
	return nil
}
