package verify

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/deps"
)

// Static verifies a synchronization program against its nest's dependence
// set. It materializes the per-iteration programs, builds the
// happens-before graph (program order within an iteration, plus a release
// edge from each wait's releasing signal(s) to the wait), topologically
// sorts it (failure = deadlock certificate), computes a vector clock per
// node, and checks every realizable dependence-arc instance pair against
// the clocks. See the package comment for the soundness obligations that
// are checked along the way.
func Static(sp *codegen.SyncProgram, opt Options) *Report {
	rep := &Report{Workload: sp.Workload.Name, Scheme: sp.Scheme, Iterations: sp.Iters}
	w := sp.Iters
	if mx := opt.maxIters(); w > mx {
		w = mx
		rep.Truncated = true
	}
	rep.Analyzed = w

	c := &checker{sp: sp, rep: rep, w: w, findIdx: make(map[string]int),
		varIdx: make([]int32, len(sp.VarNames)),
		sites:  make(map[string]*siteStat), siteOf: make(map[string]*siteStat)}
	c.materialize()
	c.classifyVars()
	c.buildReleases()
	if !c.sortAndClock() {
		return rep // cycle: clock-dependent checks are meaningless
	}
	c.checkObligations()
	c.checkChains()
	c.checkArcs()
	c.reportRedundant()
	return rep
}

// sigRec is one signal on a variable: node id, producing iteration,
// position within the iteration, and the signalled value.
type sigRec struct {
	id       int
	iter     int64
	k        int
	val      int64
	cond     bool
	guard    int64
	hasGuard bool
}

type waitRec struct {
	id   int
	iter int64
	k    int
	v    int
	t    int64
}

// varState is one synchronization variable the analyzed window names.
type varState struct {
	id                   int      // variable ID
	sigs                 []sigRec // its signals; sorted by classifyVars
	plain, accum, opaque bool
	bad                  bool // excluded from edge construction (reported)
}

type siteStat struct {
	total, redundant int
	sample           string
}

// obligation: the conditional releaser r must be in the past of fallback
// candidate cand, else a non-firing conditional leaves the wait unsound.
type obligation struct {
	v    int
	r    sigRec
	cand sigRec
}

type checker struct {
	sp  *codegen.SyncProgram
	rep *Report
	w   int64 // analyzed iterations

	evs      [][]codegen.SyncOp
	base     []int // node-id offset per iteration; base[i+1]-base[i] ops
	total    int
	iterOf   []int64
	kOf      []int32
	retain   []bool // clock kept after processing (signal/stmt nodes)
	nStmts   int
	stmtNode []int32   // [iter*nStmts+stmtPos] -> node id, -1 when not executed
	idxOf    [][]int64 // [iter] -> index vector (set by checkArcs)

	// Only the variables the window names get a varState: a scheme may
	// declare one variable per array element instance, far more than a
	// truncated window reaches. vars is in first-use order.
	varIdx []int32 // variable ID -> 1 + index in vars, 0 when unnamed
	vars   []varState
	waits  []waitRec
	relOf  [][]sigRec // wait node -> releasing signals
	// The wait nodes signal node id releases, in wait order, are
	// succ[succOff[id]:succOff[id+1]].
	succOff []int32
	succ    []int32

	obls    []obligation
	oblSeen map[[2]int]bool

	// clocks[id] is node id's vector clock: a run of packed entries sorted
	// by iteration, carved from arena (see clock.go).
	clocks  [][]uint64
	arena   clockArena
	scratch [2][]uint64

	sites   map[string]*siteStat // normalized wait site -> tally
	siteOf  map[string]*siteStat // wait tag minus its " i=N" suffix -> tally
	findIdx map[string]int       // finding dedup key -> index in rep.Findings
}

func (c *checker) vname(v int) string { return c.sp.VarNames[v] }

func (c *checker) tagOf(id int) string {
	op := c.evs[c.iterOf[id]][c.kOf[id]]
	if op.Tag != "" {
		return op.Tag
	}
	return op.Kind.String()
}

// addHard appends a hard finding, deduplicating by key: repeated instances
// of the same defect (one per iteration) fold into a count.
func (c *checker) addHard(key string, f Finding) {
	if i, ok := c.findIdx[key]; ok {
		c.rep.Findings[i].Pairs++
		return
	}
	f.Pairs = 1
	c.findIdx[key] = len(c.rep.Findings)
	c.rep.Findings = append(c.rep.Findings, f)
}

// stmtAt returns the node executing statement s in iteration i, or -1.
func (c *checker) stmtAt(i int64, s int) int {
	return int(c.stmtNode[int(i)*c.nStmts+s])
}

func (c *checker) materialize() {
	nStmts := len(c.sp.Workload.Nest.Stmts())
	c.nStmts = nStmts
	c.evs = make([][]codegen.SyncOp, c.w+1)
	c.base = make([]int, c.w+2)
	nWaits := 0
	for i := int64(1); i <= c.w; i++ {
		c.evs[i] = c.sp.At(i)
		c.base[i+1] = c.base[i] + len(c.evs[i])
		for _, op := range c.evs[i] {
			if op.Kind == codegen.SyncWait {
				nWaits++
			}
		}
	}
	c.waits = make([]waitRec, 0, nWaits)
	c.total = c.base[c.w+1]
	c.rep.Nodes = c.total
	c.iterOf = make([]int64, c.total)
	c.kOf = make([]int32, c.total)
	c.retain = make([]bool, c.total)
	c.stmtNode = make([]int32, int(c.w+1)*nStmts)
	for s := range c.stmtNode {
		c.stmtNode[s] = -1
	}
	for i := int64(1); i <= c.w; i++ {
		row := c.stmtNode[int(i)*nStmts : int(i+1)*nStmts]
		for k, op := range c.evs[i] {
			id := c.base[i] + k
			c.iterOf[id] = i
			c.kOf[id] = int32(k)
			switch op.Kind {
			case codegen.SyncStmt:
				row[op.Stmt] = int32(id)
				c.retain[id] = true
			case codegen.SyncSignal:
				c.rep.Signals++
				c.retain[id] = true
				vi := c.varOf(op.Var)
				vi.sigs = append(vi.sigs, sigRec{
					id: id, iter: i, k: k, val: op.Value,
					cond: op.Conditional, guard: op.Guard, hasGuard: op.HasGuard})
				if op.Accum {
					vi.accum = true
				} else {
					vi.plain = true
				}
			case codegen.SyncWait:
				c.rep.Waits++
				c.waits = append(c.waits, waitRec{id: id, iter: i, k: k, v: op.Var, t: op.Value})
			case codegen.SyncOpaque:
				c.varOf(op.Var).opaque = true
			}
		}
	}
}

// varOf returns variable v's state, adding it on first use. The pointer is
// valid until the next varOf call.
func (c *checker) varOf(v int) *varState {
	i := c.varIdx[v]
	if i == 0 {
		c.vars = append(c.vars, varState{id: v})
		i = int32(len(c.vars))
		c.varIdx[v] = i
	}
	return &c.vars[i-1]
}

func (c *checker) classifyVars() {
	for x := range c.vars {
		slices.SortFunc(c.vars[x].sigs, func(a, b sigRec) int {
			if a.val != b.val {
				return cmp.Compare(a.val, b.val)
			}
			if a.iter != b.iter {
				return cmp.Compare(a.iter, b.iter)
			}
			return a.k - b.k
		})
	}
	for x := range c.vars {
		vi := &c.vars[x]
		v := vi.id
		switch {
		case vi.opaque:
			vi.bad = true
			c.addHard(fmt.Sprintf("opaque|%d", v), Finding{
				Class: Unanalyzable, Var: c.vname(v),
				Summary: fmt.Sprintf("variable %s is updated by an atomic op without a protocol-guaranteed value; waits on it cannot be verified", c.vname(v)),
			})
		case vi.plain && vi.accum:
			vi.bad = true
			c.addHard(fmt.Sprintf("mixed|%d", v), Finding{
				Class: Unanalyzable, Var: c.vname(v),
				Summary: fmt.Sprintf("variable %s mixes plain writes and atomic increments; release semantics are undefined", c.vname(v)),
			})
		case vi.plain:
			ss := vi.sigs
			for j := 0; j+1 < len(ss); j++ {
				if ss[j].val == ss[j+1].val && ss[j].iter != ss[j+1].iter {
					vi.bad = true
					c.addHard(fmt.Sprintf("ambig|%d", v), Finding{
						Class: AmbiguousSignals, Var: c.vname(v),
						Summary: fmt.Sprintf("iterations %d and %d both signal %s=%d; wait releasers are not statically determined",
							ss[j].iter, ss[j+1].iter, c.vname(v), ss[j].val),
						Detail: fmt.Sprintf("%s / %s", c.tagOf(ss[j].id), c.tagOf(ss[j+1].id)),
					})
					break
				}
			}
		}
	}
}

func (c *checker) buildReleases() {
	c.oblSeen = make(map[[2]int]bool)
	c.relOf = make([][]sigRec, c.total)
	c.succOff = make([]int32, c.total+1)
	for _, w := range c.waits {
		vi := c.varOf(w.v)
		if vi.bad {
			continue
		}
		init := c.sp.VarInit[w.v]
		ss := vi.sigs
		var rels []sigRec
		if vi.accum {
			// Counting semantics: the key counts completed increments, so
			// reaching t requires the t-init increments whose protocol
			// values are <= t — all of them, collectively.
			need := w.t - init
			if need <= 0 {
				continue // pre-satisfied
			}
			cnt := sort.Search(len(ss), func(i int) bool { return ss[i].val > w.t })
			if int64(cnt) < need {
				c.addHard(fmt.Sprintf("unrel|%d|%s", w.v, site(c.tagOf(w.id))), Finding{
					Class: UnreleasableWait, Var: c.vname(w.v),
					Summary: fmt.Sprintf("wait %s needs %d increments of %s but the program performs only %d at or below the threshold",
						c.tagOf(w.id), need, c.vname(w.v), cnt),
				})
				continue
			}
			if int64(cnt) > need {
				c.addHard(fmt.Sprintf("overcnt|%d|%s", w.v, site(c.tagOf(w.id))), Finding{
					Class: Unanalyzable, Var: c.vname(w.v),
					Summary: fmt.Sprintf("wait %s: %d increments can reach threshold %d of %s; which %d complete first is not determined",
						c.tagOf(w.id), cnt, w.t, c.vname(w.v), need),
				})
				continue
			}
			rels = ss[:cnt]
		} else {
			if init >= w.t {
				continue // pre-satisfied by the initial value
			}
			lo := sort.Search(len(ss), func(i int) bool { return ss[i].val >= w.t })
			if lo == len(ss) {
				c.addHard(fmt.Sprintf("unrel|%d|%s", w.v, site(c.tagOf(w.id))), Finding{
					Class: UnreleasableWait, Var: c.vname(w.v),
					Summary: fmt.Sprintf("no signal on %s ever reaches %d required by %s",
						c.vname(w.v), w.t, c.tagOf(w.id)),
				})
				continue
			}
			r := ss[lo]
			if r.cond {
				// The minimal candidate may not fire. Sound release still
				// holds if every later candidate through the first
				// unconditional one has r in its past: whichever signal
				// actually releases the wait then carries r's effects.
				j := lo + 1
				for j < len(ss) && ss[j].cond {
					j++
				}
				if j == len(ss) {
					c.addHard(fmt.Sprintf("condonly|%d|%s", w.v, site(c.tagOf(w.id))), Finding{
						Class: UnreleasableWait, Var: c.vname(w.v),
						Summary: fmt.Sprintf("wait %s can be released only by conditional signals that may never fire", c.tagOf(w.id)),
					})
					continue
				}
				if !c.oblSeen[[2]int{w.v, lo}] {
					c.oblSeen[[2]int{w.v, lo}] = true
					for m := lo + 1; m <= j; m++ {
						c.obls = append(c.obls, obligation{v: w.v, r: r, cand: ss[m]})
					}
				}
			}
			rels = ss[lo : lo+1]
		}
		c.relOf[w.id] = rels
		for _, r := range rels {
			c.succOff[r.id+1]++
		}
	}
	for id := 0; id < c.total; id++ {
		c.succOff[id+1] += c.succOff[id]
	}
	c.succ = make([]int32, c.succOff[c.total])
	fill := slices.Clone(c.succOff[:c.total])
	for _, w := range c.waits {
		for _, r := range c.relOf[w.id] {
			c.succ[fill[r.id]] = int32(w.id)
			fill[r.id]++
		}
	}
}

// sortAndClock runs Kahn's algorithm over program-order and release edges,
// computing each node's vector clock as it is popped. Returns false (with a
// deadlock finding) if the graph has a cycle.
func (c *checker) sortAndClock() bool {
	indeg := make([]int32, c.total)
	for id := 0; id < c.total; id++ {
		if c.kOf[id] > 0 {
			indeg[id]++
		}
		indeg[id] += int32(len(c.relOf[id]))
	}
	queue := make([]int, 0, c.total)
	for id := 0; id < c.total; id++ {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	c.clocks = make([][]uint64, c.total)
	c.arena = newClockArena(c.total)
	done := make([]bool, c.total)
	processed := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done[id] = true
		processed++
		c.clocks[id] = c.clockOf(id)

		if next := id + 1; next < c.base[c.iterOf[id]+1] {
			if indeg[next]--; indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
		for _, s := range c.succ[c.succOff[id]:c.succOff[id+1]] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, int(s))
			}
		}
	}
	if processed == c.total {
		return true
	}
	c.reportCycle(done)
	return false
}

// clockOf computes node id's clock once its predecessors are done: the
// program predecessor's clock joined with every releasing signal's, with
// the node's own entry raised to kOf+1. Clock entries count ordered prefix
// nodes, so a missing entry (0) means "nothing of that iteration is
// ordered before" — including its first node.
func (c *checker) clockOf(id int) []uint64 {
	it := c.iterOf[id]
	own := packClock(it, c.kOf[id]+1)
	var row []uint64
	stolen := false
	if c.kOf[id] > 0 {
		pred := id - 1
		row = c.clocks[pred]
		if !c.retain[pred] {
			// A wait's clock has exactly one consumer (its program
			// successor): take it over instead of copying.
			stolen = true
			c.clocks[pred] = nil
		}
	}
	rels := c.relOf[id]
	if len(rels) == 0 {
		if row == nil {
			row = c.arena.alloc(1)
			row[0] = own
			return row
		}
		if !stolen {
			row = c.arena.clone(row)
		}
		// The predecessor's clock already holds this iteration's entry, so
		// this raises it in place.
		return insertClock(row, own)
	}
	redundant := true
	for _, r := range rels {
		if clockAt(row, r.iter) <= int32(r.k) {
			redundant = false
			break
		}
	}
	c.tallySite(id, redundant)
	// Merge through the two scratch buffers, then copy the result out once.
	a, b := c.scratch[0], c.scratch[1]
	cur := row
	for _, r := range rels {
		a = mergeClocks(a[:0], cur, c.clocks[r.id])
		cur = a
		a, b = b, a
	}
	cur = insertClock(cur, own)
	c.scratch[0], c.scratch[1] = a, cur
	if stolen && len(cur) <= cap(row) {
		row = row[:len(cur)]
	} else {
		row = c.arena.alloc(len(cur))
	}
	copy(row, cur)
	return row
}

// reportCycle extracts one wait-for cycle from the unprocessed residue as a
// deadlock certificate: walk predecessors (which must themselves be
// unprocessed) until a node repeats.
func (c *checker) reportCycle(done []bool) {
	start := -1
	for id := 0; id < c.total; id++ {
		if !done[id] {
			start = id
			break
		}
	}
	pos := make(map[int]int)
	var path []int
	cur := start
	for {
		if p, ok := pos[cur]; ok {
			path = path[p:]
			break
		}
		pos[cur] = len(path)
		path = append(path, cur)
		next := -1
		if c.kOf[cur] > 0 && !done[cur-1] {
			next = cur - 1
		} else {
			for _, r := range c.relOf[cur] {
				if !done[r.id] {
					next = r.id
					break
				}
			}
		}
		cur = next // an unprocessed node always has an unprocessed predecessor
	}
	// path follows predecessor links; reverse for wait-for order.
	cycle := make([]string, 0, len(path)+1)
	for i := len(path) - 1; i >= 0; i-- {
		id := path[i]
		cycle = append(cycle, fmt.Sprintf("iter %d: %s", c.iterOf[id], c.tagOf(id)))
		if len(cycle) == 24 && i > 0 {
			cycle = append(cycle, fmt.Sprintf("... (%d more)", i))
			break
		}
	}
	c.rep.Findings = append(c.rep.Findings, Finding{
		Class:   Deadlock,
		Summary: fmt.Sprintf("wait-for cycle over %d synchronization operations", len(path)),
		Cycle:   cycle,
	})
}

func (c *checker) checkObligations() {
	for _, o := range c.obls {
		if clockAt(c.clocks[o.cand.id], o.r.iter) > int32(o.r.k) {
			continue
		}
		c.addHard(fmt.Sprintf("unsound|%d|%d", o.v, o.r.id), Finding{
			Class: UnsoundRelease, Var: c.vname(o.v),
			Summary: fmt.Sprintf("conditional signal %s (iter %d) may not fire, and fallback releaser %s (iter %d) does not carry its effects",
				c.tagOf(o.r.id), o.r.iter, c.tagOf(o.cand.id), o.cand.iter),
		})
	}
}

// checkChains verifies the serialized-writer discipline the release rule
// relies on: consecutive signal values on a plain variable must be
// happens-before ordered (or the later one's firing guard must already
// imply the earlier value is visible).
func (c *checker) checkChains() {
	for x := range c.vars {
		vi := &c.vars[x]
		v, ss := vi.id, vi.sigs
		if vi.bad || vi.accum {
			continue
		}
		for j := 0; j+1 < len(ss); j++ {
			a, b := ss[j], ss[j+1]
			if a.val == b.val {
				continue // same iteration (cross-iteration dups already reported)
			}
			if a.iter == b.iter && a.k < b.k {
				continue
			}
			if b.hasGuard && b.guard >= a.val {
				continue // b fires only once a value >= a.val is visible
			}
			if clockAt(c.clocks[b.id], a.iter) > int32(a.k) {
				continue
			}
			c.addHard(fmt.Sprintf("chain|%d", v), Finding{
				Class: UnserializedSignals, Var: c.vname(v),
				Summary: fmt.Sprintf("signals %s=%d (iter %d) and %s=%d (iter %d) are not happens-before ordered; release order on %s is undefined",
					c.vname(v), a.val, a.iter, c.vname(v), b.val, b.iter, c.vname(v)),
				Detail: fmt.Sprintf("%s / %s", c.tagOf(a.id), c.tagOf(b.id)),
			})
			break
		}
	}
}

// checkArcs verifies the nest's enforced dependence set against the
// happens-before clocks. Instances are enumerated from the depth-k graph,
// not the linearized one: coalescing conservatively adds boundary "extra
// dependences" (dashed in Fig 5.2c) that distance-based schemes enforce
// for free but element-based data-oriented schemes correctly do not — those
// pairs are no true dependence and must not be demanded of any scheme.
func (c *checker) checkArcs() {
	nest := c.sp.Workload.Nest
	g := nest.Analyze()
	stmts := g.Stmts
	for _, a := range g.UnknownArcs() {
		c.addHard(fmt.Sprintf("unk|%d|%d", a.Src, a.Dst), Finding{
			Class: Unanalyzable,
			Arc:   fmt.Sprintf("%s -%s(?%s)-> %s", stmts[a.Src].Name, a.Kind, a.Reason, stmts[a.Dst].Name),
			Summary: fmt.Sprintf("arc %s -%s-> %s has no compile-time distance (%s) and cannot be statically verified",
				stmts[a.Src].Name, a.Kind, stmts[a.Dst].Name, a.Reason),
			Detail: a.Reason.Explain(),
		})
	}
	c.idxOf = make([][]int64, c.w+1)
	for i := int64(1); i <= c.w; i++ {
		c.idxOf[i] = nest.IndexOf(i)
	}
	var idx []int64
	seenCross := make(map[string]bool)
	for _, a := range g.Arcs {
		if !a.Known || a.LoopIndep {
			continue
		}
		if c.sp.Renamed && a.Kind != deps.Flow {
			continue // single-assignment storage: anti/output are vacuous
		}
		arcStr := fmt.Sprintf("%s -%s(%s)-> %s", stmts[a.Src].Name, a.Kind, distStr(a.Dist), stmts[a.Dst].Name)
		key := fmt.Sprintf("%d|%d|%v", a.Src, a.Dst, a.Dist)
		if seenCross[key] {
			continue
		}
		seenCross[key] = true
		c.rep.Arcs++
		var fails int64
		var wSrc, wDst int64
		for i := int64(1); i <= c.w; i++ {
			idx = append(idx[:0], c.idxOf[i]...)
			ok := true
			for l, d := range a.Dist {
				idx[l] += d
				if idx[l] < nest.Indexes[l].Lo || idx[l] > nest.Indexes[l].Hi {
					ok = false
					break
				}
			}
			if !ok {
				continue // the sink falls outside the iteration space
			}
			j := nest.LpidOf(idx)
			if j > c.w {
				continue // beyond the (possibly truncated) window
			}
			sn := c.stmtAt(i, a.Src)
			dn := c.stmtAt(j, a.Dst)
			if sn < 0 || dn < 0 {
				continue // a branch skipped one endpoint: no instance
			}
			c.rep.PairsChecked++
			if clockAt(c.clocks[dn], i) > c.kOf[sn] {
				continue
			}
			if c.sp.Renamed && c.flowKilled(g, a, i, j) {
				continue // the sink reads a later renamed version, not this write
			}
			if fails == 0 {
				wSrc, wDst = i, j
			}
			fails++
		}
		if fails > 0 {
			c.rep.Findings = append(c.rep.Findings, Finding{
				Class: Race, Arc: arcStr, Pairs: fails,
				SrcIter: nest.IndexOf(wSrc), DstIter: nest.IndexOf(wDst),
				Summary: fmt.Sprintf("dependence %s is not enforced: iteration %v's %s is unordered with iteration %v's %s (%d instance pairs)",
					arcStr, nest.IndexOf(wSrc), stmts[a.Src].Name, nest.IndexOf(wDst), stmts[a.Dst].Name, fails),
			})
		}
	}
	// Loop-independent arcs need body order within each iteration.
	seen := make(map[[2]int]bool)
	for _, a := range g.Arcs {
		if !a.Known || !a.LoopIndep || a.Src == a.Dst || seen[[2]int{a.Src, a.Dst}] {
			continue
		}
		seen[[2]int{a.Src, a.Dst}] = true
		for i := int64(1); i <= c.w; i++ {
			sn := c.stmtAt(i, a.Src)
			dn := c.stmtAt(i, a.Dst)
			if sn < 0 || dn < 0 || c.kOf[sn] < c.kOf[dn] {
				continue
			}
			c.addHard(fmt.Sprintf("li|%d|%d", a.Src, a.Dst), Finding{
				Class: Race,
				Arc:   fmt.Sprintf("%s -%s(0)-> %s", stmts[a.Src].Name, a.Kind, stmts[a.Dst].Name),
				Summary: fmt.Sprintf("loop-independent dependence %s -> %s violated: iteration %v executes them out of body order",
					stmts[a.Src].Name, stmts[a.Dst].Name, nest.IndexOf(i)),
				SrcIter: nest.IndexOf(i), DstIter: nest.IndexOf(i),
			})
			break
		}
	}
}

// flowKilled reports whether the flow-arc instance (src iteration i, sink
// iteration j) is superseded by another write to the same element strictly
// between the two accesses in serial order. Pairwise dependence analysis
// keeps such stale arcs (it has no kill analysis), and shared-storage
// schemes satisfy them transitively through the covering output arc; but
// under renamed single-assignment storage the sink reads the killing
// write's fresh version, so the stale write-to-read pair needs no ordering
// at all. Control flow is data-independent, so "the kill executes" is a
// static fact (stmtNode), not an approximation.
func (c *checker) flowKilled(g *deps.Graph, a deps.Arc, i, j int64) bool {
	elem := make([]int64, len(a.SrcRef.Index))
	for l, ix := range a.SrcRef.Index {
		elem[l] = ix.Eval(c.idxOf[i])
	}
	for m := i; m <= j; m++ {
		mIdx := c.idxOf[m]
		for p, st := range g.Stmts {
			if c.stmtAt(m, p) < 0 {
				continue // branch skipped: the would-be kill never executes
			}
			if (m == i && p <= a.Src) || (m == j && p >= a.Dst) {
				continue // not strictly between source and sink
			}
			for _, wr := range st.Writes {
				if wr.Array != a.SrcRef.Array || len(wr.Index) != len(elem) {
					continue
				}
				hit := true
				for l, ix := range wr.Index {
					if ix.Eval(mIdx) != elem[l] {
						hit = false
						break
					}
				}
				if hit {
					return true
				}
			}
		}
	}
	return false
}

func distStr(dist []int64) string {
	s := ""
	for l, d := range dist {
		if l > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", d)
	}
	return s
}

func (c *checker) tallySite(waitID int, redundant bool) {
	tag := c.tagOf(waitID)
	// Instances of one site often differ only in the " i=N" suffix, so the
	// stripped tag (a substring: no allocation) usually finds the tally in
	// one lookup.
	stripped := tag[:siteIterCut(tag)]
	st := c.siteOf[stripped]
	if st == nil {
		s := normalizeSite(stripped)
		st = c.sites[s]
		if st == nil {
			st = &siteStat{sample: tag}
			c.sites[s] = st
		}
		c.siteOf[stripped] = st
	}
	st.total++
	if redundant {
		st.redundant++
	}
}

func (c *checker) reportRedundant() {
	keys := make([]string, 0, len(c.sites))
	for s := range c.sites {
		keys = append(keys, s)
	}
	sort.Strings(keys)
	for _, s := range keys {
		st := c.sites[s]
		if st.redundant < st.total {
			continue
		}
		c.rep.Notes = append(c.rep.Notes, Finding{
			Class: RedundantWait, Site: s,
			Summary: fmt.Sprintf("all %d instances of wait site %q are already implied transitively (e.g. %s); the wait could be eliminated",
				st.total, s, st.sample),
		})
	}
}

// site normalizes a wait tag to its placement site by erasing the
// iteration-varying parts: "wait_PC(3,1) i=17" and "wait_PC(3,1) i=42" are
// the same site; "key:wait A[3]>=2" folds to "key:wait A[*]>=*". In
// regular-expression terms it deletes a trailing ` i=-?\d+( noop)?`, then
// rewrites `>=-?\d+` to ">=*", `\[-?\d+(,-?\d+)*\]` to "[*]" and
// `\.v\d+(\.c\d+)?` to ".v*". The three rewrites start at distinct bytes
// and never produce or split one another's matches, so one left-to-right
// pass applies all of them.
func site(tag string) string { return normalizeSite(tag[:siteIterCut(tag)]) }

// siteIterCut returns the length of tag without a trailing " i=N" or
// " i=N noop" (N an optionally negative decimal).
func siteIterCut(tag string) int {
	if t, ok := strings.CutSuffix(tag, " noop"); ok {
		if n := iterSuffix(t); n >= 0 {
			return n
		}
	}
	if n := iterSuffix(tag); n >= 0 {
		return n
	}
	return len(tag)
}

// iterSuffix returns where a trailing " i=-?\d+" starts in s, or -1.
func iterSuffix(s string) int {
	j := len(s)
	for j > 0 && isDigit(s[j-1]) {
		j--
	}
	if j == len(s) {
		return -1
	}
	if j > 0 && s[j-1] == '-' {
		j--
	}
	if strings.HasSuffix(s[:j], " i=") {
		return j - 3
	}
	return -1
}

// normalizeSite applies the three in-tag rewrites of site. It returns s
// itself when nothing matches.
func normalizeSite(s string) string {
	var out []byte
	last := 0 // s[last:i] is not yet copied to out
	for i := 0; i < len(s); {
		j := strings.IndexAny(s[i:], ">[.")
		if j < 0 {
			break
		}
		i += j
		var n int
		var rep string
		switch s[i] {
		case '>':
			n, rep = matchGE(s[i:]), ">=*"
		case '[':
			n, rep = matchElem(s[i:]), "[*]"
		case '.':
			n, rep = matchVer(s[i:]), ".v*"
		}
		if n == 0 {
			i++
			continue
		}
		out = append(append(out, s[last:i]...), rep...)
		i += n
		last = i
	}
	if out == nil {
		return s
	}
	return string(append(out, s[last:]...))
}

// matchGE returns the length of a `>=-?\d+` prefix of s, or 0.
func matchGE(s string) int {
	if len(s) < 2 || s[1] != '=' {
		return 0
	}
	if n := matchInt(s[2:]); n > 0 {
		return 2 + n
	}
	return 0
}

// matchElem returns the length of a `\[-?\d+(,-?\d+)*\]` prefix of s, or 0.
func matchElem(s string) int {
	j := 1
	for {
		n := matchInt(s[j:])
		if n == 0 {
			return 0
		}
		j += n
		if j == len(s) {
			return 0
		}
		switch s[j] {
		case ']':
			return j + 1
		case ',':
			j++
		default:
			return 0
		}
	}
}

// matchVer returns the length of a `\.v\d+(\.c\d+)?` prefix of s, or 0.
func matchVer(s string) int {
	if len(s) < 2 || s[1] != 'v' {
		return 0
	}
	n := digits(s[2:])
	if n == 0 {
		return 0
	}
	j := 2 + n
	if strings.HasPrefix(s[j:], ".c") {
		if m := digits(s[j+2:]); m > 0 {
			j += 2 + m
		}
	}
	return j
}

// matchInt returns the length of a `-?\d+` prefix of s, or 0.
func matchInt(s string) int {
	j := 0
	if j < len(s) && s[j] == '-' {
		j++
	}
	if n := digits(s[j:]); n > 0 {
		return j + n
	}
	return 0
}

func digits(s string) int {
	j := 0
	for j < len(s) && isDigit(s[j]) {
		j++
	}
	return j
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }
