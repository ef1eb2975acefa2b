// Package ipmedia is a Go implementation of compositional control of
// IP media, after Zave & Cheung, "Compositional Control of IP Media"
// (CoNEXT 2006).
//
// In many IP media services, point-to-point media channels are set up
// with the participation of one or more application servers, which may
// manipulate the same channels concurrently and without knowledge of
// each other. This library provides the paper's complete solution:
//
//   - the four high-level goal primitives — OpenSlot, CloseSlot,
//     HoldSlot, and FlowLink — with which application programmers
//     control media channels declaratively (Section IV);
//   - the idempotent, unilateral signaling protocol of descriptors and
//     selectors they compile into (Section VI);
//   - the box runtime with state-oriented programs, running unchanged
//     over in-process queues, TCP, a virtual-clock simulator, and an
//     explicit-state model checker (Sections IV and VII);
//   - media endpoints (user devices, tone generators, IVRs, conference
//     bridges, movie servers) and a simulated media plane that shows
//     packets flowing exactly when the path semantics allow;
//   - the formal path semantics of Section V, with a model checker
//     that verifies the twelve signaling-path models of Section VIII
//     against their temporal specifications;
//   - the performance laboratory of Sections VIII-C and IX-B,
//     including a SIP-semantics baseline, reproducing the paper's
//     latency formulas (2n+3c versus 7n+7c and 10n+11c+d) exactly.
//
// The subsystems live in internal packages; this package re-exports
// the public surface. See the examples directory for runnable
// programs, DESIGN.md for the system inventory, and EXPERIMENTS.md for
// the paper-versus-measured results.
package ipmedia

import (
	"ipmedia/internal/box"
	"ipmedia/internal/core"
	"ipmedia/internal/endpoint"
	"ipmedia/internal/lab"
	"ipmedia/internal/ltl"
	"ipmedia/internal/mc"
	"ipmedia/internal/mcmodel"
	"ipmedia/internal/media"
	"ipmedia/internal/path"
	"ipmedia/internal/pathmon"
	"ipmedia/internal/scenario"
	"ipmedia/internal/sig"
	"ipmedia/internal/transport"
)

// Signaling vocabulary (paper Section VI).
type (
	// Medium names a kind of media, such as Audio or Video.
	Medium = sig.Medium
	// Codec names a data format for a medium.
	Codec = sig.Codec
	// Descriptor describes an endpoint as a receiver of media. It is
	// immutable once built and shared by pointer.
	Descriptor = sig.Descriptor
	// Selector declares an endpoint's intention to send to a described
	// receiver.
	Selector = sig.Selector
	// Signal is one protocol message within a tunnel.
	Signal = sig.Signal
	// Meta is a channel-scope meta-signal.
	Meta = sig.Meta
	// MetaKind classifies meta-signals.
	MetaKind = sig.MetaKind
	// Attr is one key/value attribute of a meta-signal. Meta attrs are
	// a slice in canonical sorted order; build them with NewAttrs.
	Attr = sig.Attr
)

// NewAttrs builds a meta-signal attribute list from alternating
// key/value pairs, in the canonical sorted order the wire format
// requires.
func NewAttrs(kv ...string) []Attr { return sig.NewAttrs(kv...) }

// The meta-signal kinds (paper Section III-A).
const (
	MetaSetup       = sig.MetaSetup
	MetaTeardown    = sig.MetaTeardown
	MetaAvailable   = sig.MetaAvailable
	MetaUnavailable = sig.MetaUnavailable
	MetaApp         = sig.MetaApp
)

// Common media and codecs.
const (
	Audio   = sig.Audio
	Video   = sig.Video
	G711    = sig.G711
	G726    = sig.G726
	NoMedia = sig.NoMedia
)

// The four goal primitives (paper Section IV) and their support types.
type (
	// Goal is a goal object controlling one or two slots.
	Goal = core.Goal
	// Profile supplies the descriptors and selectors a goal sends.
	Profile = core.Profile
	// EndpointProfile is the profile of a genuine media endpoint.
	EndpointProfile = core.EndpointProfile
	// ServerProfile is the profile of an application server: it mutes
	// media in both directions.
	ServerProfile = core.ServerProfile
)

// NewOpenSlot builds an openSlot goal: open a channel of medium m on
// the named slot and push it to flowing.
func NewOpenSlot(slot string, m Medium, p Profile) Goal { return core.NewOpenSlot(slot, m, p) }

// NewCloseSlot builds a closeSlot goal: close the slot and keep it
// closed.
func NewCloseSlot(slot string) Goal { return core.NewCloseSlot(slot) }

// NewHoldSlot builds a holdSlot goal: accept a channel if the far end
// requests one, but never originate anything.
func NewHoldSlot(slot string, p Profile) Goal { return core.NewHoldSlot(slot, p) }

// NewFlowLink builds a flowLink goal: make two slots behave as one
// transparent signaling path, with a bias toward media flow.
func NewFlowLink(s1, s2 string) Goal { return core.NewFlowLink(s1, s2) }

// NewEndpointProfile builds a profile for a device receiving at
// addr:port with the given codec menus.
func NewEndpointProfile(origin, addr string, port int, recv, send []Codec) *EndpointProfile {
	return core.NewEndpointProfile(origin, addr, port, recv, send)
}

// Box runtime and the state-oriented programming model.
type (
	// Box is the synchronous core of one peer module involved in media
	// control.
	Box = box.Box
	// Runner drives a Box live over a Network.
	Runner = box.Runner
	// Program is a state-oriented box program: states carry goal
	// annotations, transitions carry guards.
	Program = box.Program
	// State is one program state.
	State = box.State
	// Trans is one guarded transition.
	Trans = box.Trans
	// Guard is a transition predicate.
	Guard = box.Guard
	// Annot is a goal annotation on a program state.
	Annot = box.Annot
	// Ctx is the programming interface inside a box.
	Ctx = box.Ctx
	// Event is one stimulus for a box core.
	Event = box.Event
)

// NewBox creates a box with the given media profile.
func NewBox(name string, p Profile) *Box { return box.New(name, p) }

// NewRunner wraps a box for live execution over net.
func NewRunner(b *Box, net Network) *Runner { return box.NewRunner(b, net) }

// TunnelSlot names the slot for tunnel i of a channel.
func TunnelSlot(channel string, i int) string { return box.TunnelSlot(channel, i) }

// Annotation constructors (paper Section IV-A).
var (
	OpenSlotAnn  = box.OpenSlotAnn
	CloseSlotAnn = box.CloseSlotAnn
	HoldSlotAnn  = box.HoldSlotAnn
	FlowLinkAnn  = box.FlowLinkAnn
)

// Transports: signaling channels are two-way, FIFO, and reliable.
type (
	// Network abstracts channel establishment.
	Network = transport.Network
	// Port is one end of a signaling channel.
	Port = transport.Port
	// MemNetwork is the in-process network.
	MemNetwork = transport.MemNetwork
	// TCPNetwork runs signaling channels over TCP.
	TCPNetwork = transport.TCPNetwork
)

// NewMemNetwork creates an in-process network.
func NewMemNetwork() *MemNetwork { return transport.NewMemNetwork() }

// Endpoints and resources.
type (
	// Device is a user device with the paper's Figure 5 interface.
	Device = endpoint.Device
	// DeviceConfig configures a Device.
	DeviceConfig = endpoint.Config
	// Bridge is a conference bridge (audio mixer).
	Bridge = endpoint.Bridge
	// MovieServer serves movies over per-tunnel media channels.
	MovieServer = endpoint.MovieServer
	// Transcoder relays media between two channels with different
	// codecs (the two-channel media resource of paper Section III-A).
	Transcoder = endpoint.Transcoder
	// TranscoderConfig configures a Transcoder.
	TranscoderConfig = endpoint.TranscoderConfig
)

// NewDevice creates, registers, and starts a device.
func NewDevice(cfg DeviceConfig) (*Device, error) { return endpoint.NewDevice(cfg) }

// NewToneGenerator creates a tone-playing resource.
func NewToneGenerator(name string, net Network, plane *MediaPlane) (*Device, error) {
	return endpoint.NewToneGenerator(name, net, plane)
}

// NewIVR creates an audio-signaling resource.
func NewIVR(name string, net Network, plane *MediaPlane, onApp func(channel, app string, attrs []Attr)) (*Device, error) {
	return endpoint.NewIVR(name, net, plane, onApp)
}

// NewBridge creates a conference bridge.
func NewBridge(name string, net Network, plane *MediaPlane) (*Bridge, error) {
	return endpoint.NewBridge(name, net, plane)
}

// NewMovieServer creates a movie server.
func NewMovieServer(name string, net Network, plane *MediaPlane) (*MovieServer, error) {
	return endpoint.NewMovieServer(name, net, plane)
}

// NewTranscoder creates a codec-bridging media resource.
func NewTranscoder(cfg TranscoderConfig) (*Transcoder, error) {
	return endpoint.NewTranscoder(cfg)
}

// Simulated media plane.
type (
	// MediaPlane delivers simulated RTP packets between endpoints.
	MediaPlane = media.Plane
	// UDPMediaPlane carries media as real UDP datagrams on the host.
	UDPMediaPlane = media.UDPPlane
	// MediaRegistry is the plane interface endpoints accept (both
	// planes implement it).
	MediaRegistry = media.Registry
	// MediaFlow is one observed media flow.
	MediaFlow = media.Flow
	// MediaFraming fills and checks the payload each media packet
	// carries; TSFraming is the MPEG-TS implementation.
	MediaFraming = media.Framing
	// MediaFramingFactory builds one framing per agent.
	MediaFramingFactory = media.FramingFactory
	// TSFraming carries genuine single-program MPEG-TS bursts.
	TSFraming = media.TSFraming
)

// NewMediaPlane creates an empty in-memory media plane.
func NewMediaPlane() *MediaPlane { return media.NewPlane() }

// NewUDPMediaPlane creates a media plane over real UDP sockets.
func NewUDPMediaPlane() *UDPMediaPlane { return media.NewUDPPlane() }

// NewTSFraming creates an MPEG-TS payload framing (188-byte packets,
// PES encapsulation, PAT/PMT, continuity counters, PCR).
func NewTSFraming() *TSFraming { return media.NewTSFraming() }

// Path semantics and verification (paper Sections V and VIII).
type (
	// PathProp is one of the paper's four temporal path specifications.
	PathProp = ltl.PathProp
	// Topology is a snapshot of boxes, tunnels, and flowlinks.
	Topology = path.Topology
	// CheckerOptions tunes the model checker.
	CheckerOptions = mc.Options
	// PathModel describes one signaling-path model to verify.
	PathModel = mcmodel.Config
	// Verdict is the outcome of checking one path model.
	Verdict = mcmodel.Verdict
)

// The temporal properties of Section V.
const (
	StabClosed      = ltl.StabClosed
	StabNotFlowing  = ltl.StabNotFlowing
	RecFlowing      = ltl.RecFlowing
	ClosedOrFlowing = ltl.ClosedOrFlowing
)

// NewTopology creates an empty topology for path analysis.
func NewTopology() *Topology { return path.NewTopology() }

// PathMonitor is the runtime verifier: it snapshots live boxes and
// evaluates the Section V path specifications on the running system.
type PathMonitor = pathmon.Monitor

// PathReport is one monitored signaling path with its specification
// and current observation.
type PathReport = pathmon.PathReport

// NewPathMonitor creates an empty runtime path monitor.
func NewPathMonitor() *PathMonitor { return pathmon.New() }

// FindPath returns the monitored path between two named boxes.
var FindPath = pathmon.Find

// CheckPathModel explores and verifies one signaling-path model.
func CheckPathModel(cfg PathModel, opts CheckerOptions) Verdict { return mcmodel.Check(cfg, opts) }

// VerifySuite runs the paper's twelve path models (Section VIII-A).
func VerifySuite(opts CheckerOptions) []Verdict { return mcmodel.Suite(opts) }

// Performance laboratory (paper Sections VIII-C and IX-B).
type (
	// LatencyRow is one measured data point against a paper formula.
	LatencyRow = lab.Row
)

// The paper's concrete cost parameters: c = 20 ms, n = 34 ms.
const (
	PaperC = lab.PaperC
	PaperN = lab.PaperN
)

// Experiment entry points; see internal/lab for details.
var (
	Fig13Latency = lab.Fig13
	PathSweep    = lab.PathSweep
	SIPCommon    = lab.SIPCommon
	SIPGlare     = lab.SIPGlare
	SIPAblations = lab.Ablations
	BundlingOurs = lab.BundlingOurs
	BundlingSIP  = lab.BundlingSIP
)

// Scenarios: the paper's example services as reusable fixtures.
type (
	// PrepaidScenario is the Figures 2/3 configuration.
	PrepaidScenario = scenario.Prepaid
	// ClickToDialConfig parameterizes the Figure 6 box.
	ClickToDialConfig = scenario.ClickToDialConfig
	// VoicemailConfig parameterizes the voicemail feature box.
	VoicemailConfig = scenario.VoicemailConfig
	// ScreenConfig parameterizes the call-screening feature box.
	ScreenConfig = scenario.ScreenConfig
)

// NewPrepaidScenario wires the prepaid-card story of Figures 2 and 3.
func NewPrepaidScenario() (*PrepaidScenario, error) { return scenario.NewPrepaid() }

// NewClickToDial starts a Click-to-Dial box (paper Figure 6).
var NewClickToDial = scenario.NewClickToDial

// NewVoicemail starts a voicemail feature box (the paper's motivating
// "persistent network presence" service, Section I).
var NewVoicemail = scenario.NewVoicemail

// NewScreen starts a call-screening feature box, composable in a
// DFC-style pipeline with other features.
var NewScreen = scenario.NewScreen
