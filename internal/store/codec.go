package store

import (
	"encoding/binary"
	"fmt"
)

// WAL record types. The type byte is the first byte of every record
// payload; replay dispatches on it.
const (
	recProfile byte = 1 // subscriber feature-profile upsert
	recAdjust  byte = 2 // token-guarded balance adjustment
	recCDR     byte = 3 // call-detail record append
)

// maxStringLen bounds every decoded string/slice so corrupt or hostile
// records cannot demand absurd allocations.
const maxStringLen = 1 << 16

// maxFeatures bounds a profile's feature list.
const maxFeatures = 256

// Profile is one subscriber's feature profile, the record consulted on
// every path setup: who the subscriber is and which feature boxes
// apply to their calls (the per-subscriber service state the paper's
// feature boxes assume exists somewhere).
type Profile struct {
	Name     string
	Features []string
}

// DefaultProfile is the degraded-mode profile used when a registry
// lookup misses: a bare subscriber with no features, so setup proceeds
// featureless instead of failing. Callers can distinguish the case by
// Lookup's ok result and the store.lookup_miss counter.
func DefaultProfile(name string) Profile { return Profile{Name: name} }

// CDR is one call-detail record, appended on every signaling-channel
// teardown.
type CDR struct {
	Seq     uint64 // assigned by the store, unique and dense
	Local   string // the box that observed the teardown
	Peer    string // the far end (dialed address or announced box name)
	Channel string // channel name at the observing box
	SetupNS int64  // channel setup time, unixnano
	TornNS  int64  // teardown time, unixnano
}

// adjust is the balance-adjustment payload: delta cents guarded by a
// per-subscriber monotone token, so a crashed-and-retried debit applies
// exactly once.
type adjust struct {
	Name  string
	Delta int64
	Token uint64
}

// balance is the per-subscriber balance state.
type balance struct {
	Cents     int64
	LastToken uint64
}

// --- append-style encoders ---

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendProfile encodes p (without the record type byte).
func appendProfile(dst []byte, p *Profile) []byte {
	dst = appendString(dst, p.Name)
	dst = binary.AppendUvarint(dst, uint64(len(p.Features)))
	for _, f := range p.Features {
		dst = appendString(dst, f)
	}
	return dst
}

// appendAdjust encodes a balance adjustment.
func appendAdjust(dst []byte, a *adjust) []byte {
	dst = appendString(dst, a.Name)
	dst = binary.AppendVarint(dst, a.Delta)
	return binary.AppendUvarint(dst, a.Token)
}

// appendCDR encodes c.
func appendCDR(dst []byte, c *CDR) []byte {
	dst = binary.AppendUvarint(dst, c.Seq)
	dst = appendString(dst, c.Local)
	dst = appendString(dst, c.Peer)
	dst = appendString(dst, c.Channel)
	dst = binary.AppendVarint(dst, c.SetupNS)
	return binary.AppendVarint(dst, c.TornNS)
}

// --- decoders (never panic on corrupt input) ---

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("store: truncated uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("store: truncated varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxStringLen || n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("store: string length %d exceeds buffer", n)
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("store: %d trailing bytes", len(d.buf))
	}
	return nil
}

// decodeProfile decodes an encoded profile.
func decodeProfile(buf []byte) (Profile, error) {
	d := decoder{buf: buf}
	var p Profile
	p.Name = d.string()
	n := d.uvarint()
	if d.err == nil && n > maxFeatures {
		return Profile{}, fmt.Errorf("store: %d features exceeds limit", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		p.Features = append(p.Features, d.string())
	}
	return p, d.done()
}

// decodeAdjust decodes a balance adjustment.
func decodeAdjust(buf []byte) (adjust, error) {
	d := decoder{buf: buf}
	a := adjust{Name: d.string(), Delta: d.varint(), Token: d.uvarint()}
	return a, d.done()
}

// decodeCDR decodes a call-detail record.
func decodeCDR(buf []byte) (CDR, error) {
	d := decoder{buf: buf}
	c := CDR{
		Seq:     d.uvarint(),
		Local:   d.string(),
		Peer:    d.string(),
		Channel: d.string(),
		SetupNS: d.varint(),
		TornNS:  d.varint(),
	}
	return c, d.done()
}
