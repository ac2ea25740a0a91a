package fault

// Seeded fault injection for the cluster's peer links.
//
// LinkPlan extends the package's determinism contract from the simulated
// sync bus to the real HTTP links between cluster nodes: every decision is
// a pure hash of (seed, site kind, src, dst, endpoint, attempt), never of
// wall-clock time or goroutine interleaving — so two runs with the same
// seed and the same request sequence inject exactly the same faults, which
// is what makes a distributed chaos failure debuggable. The one deliberate
// exception is partition episodes, which are windows in time by nature;
// their clock is injectable (NewLinkInjectorAt) so a probe harness can
// advance it by hand and keep even the partitions deterministic.
//
// Like the rest of the package, this file imports nothing from the
// repository: internal/cluster consumes it, so it must sit below it.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// LinkPlan describes seeded faults for the directed links between cluster
// peers. The zero value injects nothing. Probabilities are per HTTP
// exchange (each retry attempt is its own exchange, with its own hash
// coordinate) in [0,1].
type LinkPlan struct {
	// Seed selects the fault schedule; same plan + seed + request sequence
	// means the same faults on every run.
	Seed int64 `json:"seed,omitempty"`

	// DropProb is the probability one peer exchange is lost: the request
	// never reaches the wire and the sender sees a transport error (which
	// the peer client retries like any other).
	DropProb float64 `json:"dropProb,omitempty"`
	// DelayProb is the probability an exchange is held DelayMS milliseconds
	// before being sent (default 25ms) — enough to skew probe and gossip
	// timing without tripping client timeouts on its own.
	DelayProb float64 `json:"delayProb,omitempty"`
	DelayMS   int64   `json:"delayMS,omitempty"`
	// DupProb is the probability an exchange is delivered twice. Peer
	// traffic is content-addressed and import-idempotent, so duplication
	// must be harmless; this probes that claim, exactly as the bus-level
	// DupProb probes monotone sync variables.
	DupProb float64 `json:"dupProb,omitempty"`

	// BlackHole lists directed links "src>dst" that never deliver — the
	// permanent, asymmetric partition (A cannot reach B while B still
	// reaches A) that gossip convergence must survive.
	BlackHole []string `json:"blackHole,omitempty"`

	// Partitions are named episodes: while active, any link that crosses an
	// island boundary is cut in the direction the deciding node sends.
	Partitions []PartitionEpisode `json:"partitions,omitempty"`
}

// PartitionEpisode is one named network partition with a start and heal
// time, measured from the injector's arming.
type PartitionEpisode struct {
	Name string `json:"name"`
	// Islands are the connected groups of member IDs. Members listed in no
	// island form one implicit final island — so a single listed island
	// {c} cuts c from everyone else.
	Islands [][]string `json:"islands"`
	// StartMS/HealMS bound the episode in milliseconds after arming;
	// HealMS 0 means the partition never heals.
	StartMS int64 `json:"startMS,omitempty"`
	HealMS  int64 `json:"healMS,omitempty"`
}

// Enabled reports whether the plan injects anything at all.
func (p LinkPlan) Enabled() bool {
	return p.DropProb > 0 || p.DelayProb > 0 || p.DupProb > 0 ||
		len(p.BlackHole) > 0 || len(p.Partitions) > 0
}

// Check validates the plan so a bad link-fault spec is an input error, not
// a surprise mid-chaos.
func (p LinkPlan) Check() error {
	probs := []struct {
		name string
		v    float64
	}{{"dropProb", p.DropProb}, {"delayProb", p.DelayProb}, {"dupProb", p.DupProb}}
	for _, pr := range probs {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault: link %s must be in [0,1] (got %g)", pr.name, pr.v)
		}
	}
	if p.DelayMS < 0 {
		return fmt.Errorf("fault: link delayMS must be >= 0 (got %d)", p.DelayMS)
	}
	for _, bh := range p.BlackHole {
		src, dst, ok := strings.Cut(bh, ">")
		if !ok || src == "" || dst == "" {
			return fmt.Errorf("fault: black-hole link %q is not src>dst", bh)
		}
	}
	for _, ep := range p.Partitions {
		if ep.Name == "" {
			return fmt.Errorf("fault: partition episode without a name")
		}
		if len(ep.Islands) == 0 {
			return fmt.Errorf("fault: partition %q has no islands", ep.Name)
		}
		seen := map[string]bool{}
		for _, isl := range ep.Islands {
			if len(isl) == 0 {
				return fmt.Errorf("fault: partition %q has an empty island", ep.Name)
			}
			for _, id := range isl {
				if seen[id] {
					return fmt.Errorf("fault: partition %q lists member %q in two islands", ep.Name, id)
				}
				seen[id] = true
			}
		}
		if ep.StartMS < 0 {
			return fmt.Errorf("fault: partition %q startMS must be >= 0 (got %d)", ep.Name, ep.StartMS)
		}
		if ep.HealMS != 0 && ep.HealMS <= ep.StartMS {
			return fmt.Errorf("fault: partition %q heals at %dms, not after its start %dms", ep.Name, ep.HealMS, ep.StartMS)
		}
	}
	return nil
}

func (p LinkPlan) delayMS() int64 {
	if p.DelayMS > 0 {
		return p.DelayMS
	}
	return 25
}

// Link site kinds salt the per-link hash, offset away from the bus-level
// site kinds so the two schedules never alias.
const (
	linkSiteDrop uint64 = iota + 16
	linkSiteDelay
	linkSiteDup
)

// hashStr folds a string into the splitmix64 schedule (FNV-1a then the
// finalizer), so member IDs and endpoint paths become stable coordinates.
func hashStr(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return mix(h)
}

// linkRoll returns a uniform float64 in [0,1) fully determined by the
// seed, the site kind, the directed link, the endpoint and the attempt
// ordinal on that (link, endpoint).
func (p LinkPlan) linkRoll(kind uint64, src, dst, endpoint string, attempt int64) float64 {
	h := mix(uint64(p.Seed)) ^ mix(kind)
	h = mix(h ^ hashStr(src))
	h = mix(h ^ hashStr(dst))
	h = mix(h ^ hashStr(endpoint))
	h = mix(h ^ uint64(attempt))
	return float64(h>>11) / (1 << 53)
}

// LinkVerdict is the injector's decision for one peer exchange.
type LinkVerdict struct {
	// Cut: the link is severed (black hole or active partition) — fail
	// without touching the wire. Episode names the partition when one cut.
	Cut     bool
	Episode string
	// Drop: lose this exchange (transport error to the sender).
	Drop bool
	// Delay: hold the exchange this long before sending.
	Delay time.Duration
	// Dup: deliver the exchange twice.
	Dup bool
}

// LinkCounts snapshots the injected-fault counters by kind.
type LinkCounts struct {
	Drops      int64 `json:"drops"`
	Delays     int64 `json:"delays"`
	Dups       int64 `json:"dups"`
	BlackHoled int64 `json:"blackHoled"`
	Partition  int64 `json:"partition"`
}

// Total sums every injected fault.
func (c LinkCounts) Total() int64 {
	return c.Drops + c.Delays + c.Dups + c.BlackHoled + c.Partition
}

// Add returns the element-wise sum (aggregating per-node injectors).
func (c LinkCounts) Add(o LinkCounts) LinkCounts {
	return LinkCounts{
		Drops:      c.Drops + o.Drops,
		Delays:     c.Delays + o.Delays,
		Dups:       c.Dups + o.Dups,
		BlackHoled: c.BlackHoled + o.BlackHoled,
		Partition:  c.Partition + o.Partition,
	}
}

// episodeState is one partition episode with its island index precomputed.
type episodeState struct {
	name        string
	start, heal int64          // ms after arming; heal 0 = never
	island      map[string]int // member ID -> island ordinal
	implicit    int            // ordinal of the implicit island for unlisted members
}

func (e *episodeState) active(elapsedMS int64) bool {
	return elapsedMS >= e.start && (e.heal == 0 || elapsedMS < e.heal)
}

func (e *episodeState) ordinal(id string) int {
	if i, ok := e.island[id]; ok {
		return i
	}
	return e.implicit
}

// LinkInjector applies a LinkPlan to a stream of peer exchanges. It owns
// the per-(link, endpoint) attempt counters — the only state the schedule
// depends on — and the per-kind injected-fault counters.
type LinkInjector struct {
	plan      LinkPlan
	now       func() time.Time
	start     time.Time
	blackHole map[string]bool
	episodes  []episodeState

	mu       sync.Mutex
	attempts map[string]int64

	drops, delays, dups, blackholed, cuts atomic.Int64
}

// NewLinkInjector arms the plan against the wall clock.
func NewLinkInjector(p LinkPlan) *LinkInjector {
	return NewLinkInjectorAt(p, time.Now)
}

// NewLinkInjectorAt arms the plan against an injected clock, which decides
// partition-episode windows. Probe harnesses advance it by hand so even
// the time-windowed faults replay deterministically.
func NewLinkInjectorAt(p LinkPlan, now func() time.Time) *LinkInjector {
	in := &LinkInjector{
		plan:      p,
		now:       now,
		start:     now(),
		blackHole: make(map[string]bool, len(p.BlackHole)),
		attempts:  make(map[string]int64),
	}
	for _, bh := range p.BlackHole {
		in.blackHole[bh] = true
	}
	for _, ep := range p.Partitions {
		es := episodeState{
			name:   ep.Name,
			start:  ep.StartMS,
			heal:   ep.HealMS,
			island: make(map[string]int),
		}
		for i, isl := range ep.Islands {
			for _, id := range isl {
				es.island[id] = i
			}
		}
		es.implicit = len(ep.Islands)
		in.episodes = append(in.episodes, es)
	}
	return in
}

// Decide rolls the dice for one exchange on the directed link src->dst and
// advances that (link, endpoint)'s attempt ordinal. Cuts (black hole,
// partition) take precedence: a severed link has no probabilistic faults,
// it simply does not deliver.
func (in *LinkInjector) Decide(src, dst, endpoint string) LinkVerdict {
	site := src + ">" + dst + ":" + endpoint
	in.mu.Lock()
	attempt := in.attempts[site]
	in.attempts[site] = attempt + 1
	in.mu.Unlock()

	if in.blackHole[src+">"+dst] {
		in.blackholed.Add(1)
		return LinkVerdict{Cut: true}
	}
	elapsed := in.now().Sub(in.start).Milliseconds()
	for i := range in.episodes {
		ep := &in.episodes[i]
		if ep.active(elapsed) && ep.ordinal(src) != ep.ordinal(dst) {
			in.cuts.Add(1)
			return LinkVerdict{Cut: true, Episode: ep.name}
		}
	}

	var v LinkVerdict
	p := in.plan
	if p.DropProb > 0 && p.linkRoll(linkSiteDrop, src, dst, endpoint, attempt) < p.DropProb {
		in.drops.Add(1)
		v.Drop = true
		return v
	}
	if p.DelayProb > 0 && p.linkRoll(linkSiteDelay, src, dst, endpoint, attempt) < p.DelayProb {
		in.delays.Add(1)
		v.Delay = time.Duration(p.delayMS()) * time.Millisecond
	}
	if p.DupProb > 0 && p.linkRoll(linkSiteDup, src, dst, endpoint, attempt) < p.DupProb {
		in.dups.Add(1)
		v.Dup = true
	}
	return v
}

// Counts snapshots the injected-fault counters.
func (in *LinkInjector) Counts() LinkCounts {
	return LinkCounts{
		Drops:      in.drops.Load(),
		Delays:     in.delays.Load(),
		Dups:       in.dups.Load(),
		BlackHoled: in.blackholed.Load(),
		Partition:  in.cuts.Load(),
	}
}

// PartitionActive reports whether any partition episode is active at the
// injector's current clock (probe harnesses poll it across heal times).
func (in *LinkInjector) PartitionActive() bool {
	elapsed := in.now().Sub(in.start).Milliseconds()
	for i := range in.episodes {
		if in.episodes[i].active(elapsed) {
			return true
		}
	}
	return false
}

// ParseLinkSpec builds a LinkPlan from the comma-separated CLI
// mini-language used by dsserve -link-fault:
//
//	seed=42                         schedule seed (default 0)
//	drop=link:P                     drop each peer exchange with probability P
//	delay=link:P[:MS]               delay each exchange MS milliseconds with probability P (MS default 25)
//	dup=link:P                      deliver each exchange twice with probability P
//	blackhole=src>dst               sever the directed link src->dst permanently
//	partition=name:a+b/c[:S[:H]]    named episode: islands are +-joined member
//	                                IDs separated by /; unlisted members form
//	                                one implicit island; active from S ms
//	                                after boot until H ms (H 0 = forever)
//
// Example: 'seed=42,drop=link:0.05,partition=split:c/a+b:2000:8000'.
func ParseLinkSpec(spec string) (LinkPlan, error) {
	var p LinkPlan
	if err := eachSpecItem(spec, p.applyLinkSpecItem); err != nil {
		return LinkPlan{}, err
	}
	if err := p.Check(); err != nil {
		return LinkPlan{}, err
	}
	return p, nil
}

func (p *LinkPlan) applyLinkSpecItem(key, val string) error {
	parts := strings.Split(val, ":")
	switch key {
	case "seed":
		return specInt(key, parts, 1, &p.Seed)
	case "drop":
		return specProb(key, "link", parts, &p.DropProb, nil)
	case "delay":
		return specProb(key, "link", parts, &p.DelayProb, &p.DelayMS)
	case "dup":
		return specProb(key, "link", parts, &p.DupProb, nil)
	case "blackhole":
		p.BlackHole = append(p.BlackHole, val)
		return nil
	case "partition":
		if len(parts) < 2 || len(parts) > 4 {
			return fmt.Errorf("fault: partition wants name:islands[:startMS[:healMS]] (got %q)", val)
		}
		ep := PartitionEpisode{Name: parts[0]}
		for _, isl := range strings.Split(parts[1], "/") {
			var members []string
			for _, id := range strings.Split(isl, "+") {
				if id != "" {
					members = append(members, id)
				}
			}
			ep.Islands = append(ep.Islands, members)
		}
		if len(parts) >= 3 {
			ms, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil {
				return fmt.Errorf("fault: partition %q startMS %q: %v", ep.Name, parts[2], err)
			}
			ep.StartMS = ms
		}
		if len(parts) == 4 {
			ms, err := strconv.ParseInt(parts[3], 10, 64)
			if err != nil {
				return fmt.Errorf("fault: partition %q healMS %q: %v", ep.Name, parts[3], err)
			}
			ep.HealMS = ms
		}
		p.Partitions = append(p.Partitions, ep)
		return nil
	default:
		return fmt.Errorf("fault: unknown link spec key %q", key)
	}
}
