// Package core implements the paper's epidemic update-distribution
// protocols: direct mail (§1.2), anti-entropy as a simple epidemic (§1.3),
// rumor mongering with all of §1.4's design variations, anti-entropy backup
// and the combined peel-back/rumor scheme (§1.5), and the death-certificate
// lifecycle (§2).
//
// Two levels are provided. The *spread engines* (SpreadRumor,
// SpreadAntiEntropy) simulate the propagation of a single update through n
// sites in synchronous cycles, exactly the model behind every table and
// figure in the paper's evaluation. The *database operations*
// (ResolveDifference, DirectMail, the compare strategies) operate on real
// store.Store replicas and back the runtime in package node.
package core

import "fmt"

// Mode selects the direction of an exchange: who sends database state to
// whom (§1.3's three ResolveDifference variants, reused by rumor
// mongering's push/pull distinction in §1.4).
type Mode int

const (
	// Push : the initiating site sends its newer state to its partner.
	Push Mode = iota + 1
	// Pull : the initiating site asks its partner for newer state.
	Pull
	// PushPull : both directions in one conversation.
	PushPull
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Push:
		return "push"
	case Pull:
		return "pull"
	case PushPull:
		return "push-pull"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Valid reports whether m is one of the defined modes.
func (m Mode) Valid() bool { return m == Push || m == Pull || m == PushPull }

// RumorConfig selects a complex-epidemic variant along the axes of §1.4.
// The zero value is invalid; use the fields explicitly or start from
// DefaultRumorConfig.
type RumorConfig struct {
	// K is the loss parameter: with Counter, an infective site becomes
	// removed after K unnecessary contacts; with coin, each unnecessary
	// contact removes it with probability 1/K.
	K int
	// Counter selects the counter variant; false selects coin.
	Counter bool
	// Feedback selects recipient feedback (a sender counts only contacts
	// whose recipient already knew the rumor); false selects blind (every
	// contact counts regardless of the recipient).
	Feedback bool
	// Mode is the exchange direction.
	Mode Mode
	// ConnLimit caps how many incoming conversations a site accepts per
	// cycle; 0 means unlimited. The paper's "most pessimistic assumption"
	// is ConnLimit 1, HuntLimit 0.
	ConnLimit int
	// HuntLimit is how many alternate partners a site tries after a
	// rejected connection. HuntUnlimited hunts until an open partner is
	// found.
	HuntLimit int
	// Minimization applies §1.4's counter-minimization rule in push-pull
	// exchanges where both parties already know the update: only the site
	// with the smaller counter is incremented (both on a tie).
	Minimization bool
	// NoCounterReset disables resetting a feedback counter to zero when a
	// contact turns out useful. By default counters count *consecutive*
	// unnecessary contacts: Table 3's footnote specifies the reset for
	// pull, and calibration against Table 1 shows the paper's push
	// simulations used the same semantics (without the reset, measured
	// traffic falls ~0.4/site short of every Table 1 row; with it, all
	// rows match). Setting NoCounterReset gives the plain cumulative
	// counter as an ablation.
	NoCounterReset bool
	// MaxCycles bounds the simulation; 0 uses a generous default. The
	// rumor process is self-terminating, so the bound only guards against
	// misconfiguration.
	MaxCycles int
}

// HuntUnlimited as HuntLimit makes a sender hunt until it finds a partner
// with connection capacity (§1.4: "a connection limit of 1 with infinite
// hunt limit results in a complete permutation").
const HuntUnlimited = -1

// DefaultRumorConfig is the paper's baseline: push, feedback, counter k=2.
func DefaultRumorConfig() RumorConfig {
	return RumorConfig{K: 2, Counter: true, Feedback: true, Mode: Push}
}

// Validate reports configuration errors.
func (c RumorConfig) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("core: rumor K must be >= 1, got %d", c.K)
	}
	if !c.Mode.Valid() {
		return fmt.Errorf("core: invalid mode %v", c.Mode)
	}
	if c.ConnLimit < 0 {
		return fmt.Errorf("core: ConnLimit must be >= 0, got %d", c.ConnLimit)
	}
	if c.HuntLimit < HuntUnlimited {
		return fmt.Errorf("core: HuntLimit must be >= -1, got %d", c.HuntLimit)
	}
	if c.Minimization && c.Mode != PushPull {
		return fmt.Errorf("core: Minimization requires PushPull mode")
	}
	return nil
}

// String renders the variant the way the paper names them, e.g.
// "(Feedback, Counter, push, Connection Limit 1)".
func (c RumorConfig) String() string {
	fb := "Blind"
	if c.Feedback {
		fb = "Feedback"
	}
	cc := "Coin"
	if c.Counter {
		cc = "Counter"
	}
	lim := "No Connection Limit"
	if c.ConnLimit > 0 {
		lim = fmt.Sprintf("Connection Limit %d", c.ConnLimit)
	}
	return fmt.Sprintf("(%s, %s k=%d, %s, %s)", fb, cc, c.K, c.Mode, lim)
}

// AntiEntropyConfig selects an anti-entropy variant for the spread
// simulation behind Tables 4 and 5.
type AntiEntropyConfig struct {
	// Mode is the ResolveDifference direction; the paper's CIN experiments
	// use PushPull.
	Mode Mode
	// ConnLimit caps incoming conversations per site per cycle; 0 means
	// unlimited.
	ConnLimit int
	// HuntLimit is the number of alternate partners tried after rejection
	// (HuntUnlimited for exhaustive hunting).
	HuntLimit int
	// MaxCycles bounds the simulation; 0 uses a generous default.
	MaxCycles int
}

// Validate reports configuration errors.
func (c AntiEntropyConfig) Validate() error {
	if !c.Mode.Valid() {
		return fmt.Errorf("core: invalid mode %v", c.Mode)
	}
	if c.ConnLimit < 0 {
		return fmt.Errorf("core: ConnLimit must be >= 0, got %d", c.ConnLimit)
	}
	if c.HuntLimit < HuntUnlimited {
		return fmt.Errorf("core: HuntLimit must be >= -1, got %d", c.HuntLimit)
	}
	return nil
}
