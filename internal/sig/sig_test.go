package sig

import (
	"testing"
)

func TestDescriptorNoMedia(t *testing.T) {
	cases := []struct {
		name string
		d    *Descriptor
		want bool
	}{
		{"no descriptor", nil, true},
		{"empty codec list", &Descriptor{}, true},
		{"explicit noMedia", NoMediaDescriptor(DescID{"srv", 1}), true},
		{"single real codec", &Descriptor{Codecs: []Codec{G711}}, false},
		{"mixed with noMedia", &Descriptor{Codecs: []Codec{NoMedia, G711}}, false},
	}
	for _, c := range cases {
		if got := c.d.NoMedia(); got != c.want {
			t.Errorf("%s: NoMedia() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDescriptorOffers(t *testing.T) {
	d := &Descriptor{Codecs: []Codec{G711, G726}}
	if !d.Offers(G711) || !d.Offers(G726) {
		t.Error("descriptor should offer both listed codecs")
	}
	if d.Offers(G729) {
		t.Error("descriptor should not offer an unlisted codec")
	}
}

func TestDescriptorEqualAndSameContent(t *testing.T) {
	a := Descriptor{ID: DescID{"A", 1}, Addr: "10.0.0.1", Port: 5004, Codecs: []Codec{G711, G726}}
	b := a
	if !a.Equal(&b) {
		t.Error("identical descriptors must be Equal")
	}
	b.ID.Seq = 2
	if a.Equal(&b) {
		t.Error("differing IDs must not be Equal")
	}
	if !a.SameContent(&b) {
		t.Error("differing IDs with same content must be SameContent")
	}
	b.Port = 5006
	if a.SameContent(&b) {
		t.Error("differing ports must not be SameContent")
	}
	c := a
	c.Codecs = []Codec{G726, G711}
	if a.Equal(&c) {
		t.Error("codec priority order is significant")
	}
}

func TestAnswerDescriptorChoosesHighestPriority(t *testing.T) {
	d := &Descriptor{ID: DescID{"A", 3}, Addr: "10.0.0.1", Port: 5004, Codecs: []Codec{G711, G726, G729}}
	sel := AnswerDescriptor(d, "10.0.0.2", 6000, []Codec{G729, G726}, false)
	if sel.Codec != G726 {
		t.Errorf("expected highest-priority common codec G726, got %s", sel.Codec)
	}
	if sel.Answers != d.ID {
		t.Errorf("selector must answer the descriptor's ID, got %s", sel.Answers)
	}
	if sel.Addr != "10.0.0.2" || sel.Port != 6000 {
		t.Errorf("selector must carry sender's address, got %s:%d", sel.Addr, sel.Port)
	}
}

func TestAnswerDescriptorMuteOut(t *testing.T) {
	d := &Descriptor{ID: DescID{"A", 1}, Addr: "h", Port: 1, Codecs: []Codec{G711}}
	sel := AnswerDescriptor(d, "x", 2, []Codec{G711}, true)
	if !sel.NoMedia() {
		t.Error("muteOut must produce a noMedia selector")
	}
}

func TestAnswerDescriptorNoMediaDescriptor(t *testing.T) {
	// "The only legal response to a descriptor noMedia is a selector
	// noMedia" (paper Section VI-B).
	d := NoMediaDescriptor(DescID{"srv", 1})
	sel := AnswerDescriptor(d, "x", 2, []Codec{G711, G726}, false)
	if !sel.NoMedia() {
		t.Error("answer to a noMedia descriptor must be noMedia")
	}
}

func TestAnswerDescriptorNoCommonCodec(t *testing.T) {
	d := &Descriptor{ID: DescID{"A", 1}, Addr: "h", Port: 1, Codecs: []Codec{H263}}
	sel := AnswerDescriptor(d, "x", 2, []Codec{G711}, false)
	if !sel.NoMedia() {
		t.Error("no common codec must degrade to noMedia")
	}
}

func TestSignalConstructors(t *testing.T) {
	d := &Descriptor{ID: DescID{"A", 1}, Addr: "h", Port: 9, Codecs: []Codec{G711}}
	s := Selector{Answers: d.ID, Addr: "h2", Port: 10, Codec: G711}
	cases := []struct {
		sig  Signal
		kind Kind
	}{
		{Open(Audio, d), KindOpen},
		{Oack(d), KindOack},
		{Close(), KindClose},
		{CloseAck(), KindCloseAck},
		{Describe(d), KindDescribe},
		{Select(s), KindSelect},
	}
	for _, c := range cases {
		if c.sig.Kind != c.kind {
			t.Errorf("constructor produced kind %s, want %s", c.sig.Kind, c.kind)
		}
	}
	if Open(Audio, d).Medium != Audio {
		t.Error("open must carry its medium")
	}
}

func TestStringForms(t *testing.T) {
	// String forms feed logs and traces; they must be non-empty and
	// distinguish kinds.
	d := &Descriptor{ID: DescID{"A", 1}, Addr: "h", Port: 9, Codecs: []Codec{G711}}
	seen := map[string]bool{}
	for _, g := range []Signal{Open(Audio, d), Oack(d), Close(), CloseAck(), Describe(d), Select(Selector{Answers: d.ID})} {
		s := g.String()
		if s == "" || seen[s] {
			t.Errorf("string form %q empty or duplicated", s)
		}
		seen[s] = true
	}
	if (Meta{Kind: MetaApp, App: "paid"}).String() != "meta:app(paid)" {
		t.Errorf("unexpected meta string %q", Meta{Kind: MetaApp, App: "paid"}.String())
	}
	if got := (Envelope{Tunnel: 2, Sig: Close()}).String(); got != "t2:close" {
		t.Errorf("unexpected envelope string %q", got)
	}
}

func TestEnvelopeIsMeta(t *testing.T) {
	if (Envelope{Sig: Close()}).IsMeta() {
		t.Error("signal envelope reported as meta")
	}
	if !(Envelope{Meta: &Meta{Kind: MetaSetup}}).IsMeta() {
		t.Error("meta envelope not reported as meta")
	}
}
