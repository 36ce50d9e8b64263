package netem

import "slices"

// component is one connected component of the flow/link sharing graph,
// kept across passes in the canonical order fillComponent runs in: links
// by ord, flows by creation ID. Every busy link points at its component
// and no idle link at any; join and leave keep it so, and an emptied
// component waits on the free list, its slices kept for reuse.
type component struct {
	links []*link
	flows []*Flow
}

// keyed orders a component's members; keys are unique in a network.
type keyed interface{ key() int }

func (l *link) key() int { return l.ord }
func (f *Flow) key() int { return f.id }

// join puts f, just appended to its links' flow lists, into their
// component: two idle links start one, an idle link joins its partner's,
// and links in two components merge them. f is inserted by ID, not
// appended: flows activate in setup-delay order, not ID order.
//
//lint:hotpath once per activation
func (n *Network) join(f *Flow) {
	up, down := f.lup, f.ldown
	c := up.comp
	switch {
	case c == nil && down.comp == nil:
		c = n.newComponent()
		c.links = insertSorted(append(c.links, up), down)
	case c == nil:
		c = down.comp
		c.links = insertSorted(c.links, up)
	case down.comp == nil:
		c.links = insertSorted(c.links, down)
	case down.comp != c:
		c = n.merge(c, down.comp)
	}
	up.comp, down.comp = c, c
	c.flows = insertSorted(c.flows, f)
	if n.memberHook != nil {
		n.memberHook(f, true)
	}
}

// merge joins c and d into the larger, relabelling the smaller's links.
//
//lint:hotpath a join across two components
func (n *Network) merge(c, d *component) *component {
	if len(c.links) < len(d.links) {
		c, d = d, c
	}
	for _, l := range d.links {
		l.comp = c
	}
	c.links, c.flows = mergeSorted(c.links, d.links), mergeSorted(c.flows, d.flows)
	n.freeComponent(d)
	return c
}

// leave takes f, just removed from its links' flow lists, out of their
// component and drops a link it leaves idle. A leave can split the
// component only if both links stay busy: an idle one was reached
// through f alone.
//
//lint:hotpath once per flow leaving the links
func (n *Network) leave(f *Flow) {
	up, down := f.lup, f.ldown
	c := up.comp
	c.flows = removeSorted(c.flows, f)
	if len(up.flows) == 0 {
		c.links, up.comp = removeSorted(c.links, up), nil
	}
	if len(down.flows) == 0 {
		c.links, down.comp = removeSorted(c.links, down), nil
	}
	switch {
	case len(c.flows) == 0:
		n.freeComponent(c)
	case up.comp != nil && down.comp != nil:
		n.split(c, up, down)
	}
	if n.memberHook != nil {
		n.memberHook(f, false)
	}
}

// split searches from up and from down, stepping the side with the
// smaller frontier, until the sides meet. A side that runs out first is
// a component of its own, filtered out of c's lists so both keep their
// order.
//
//lint:hotpath every leave that keeps both links busy
func (n *Network) split(c *component, up, down *link) {
	n.allocGen += 2
	sideUp, sideDown := n.allocGen-1, n.allocGen
	up.mark, down.mark = sideUp, sideDown
	qu, qd := append(n.linkQueue[:0], up), append(n.sideQueue[:0], down)
	met := false
	for !met && len(qu) > 0 && len(qd) > 0 {
		if len(qu) <= len(qd) {
			qu, met = explore(qu, sideUp, sideDown)
		} else {
			qd, met = explore(qd, sideDown, sideUp)
		}
	}
	n.linkQueue, n.sideQueue = qu, qd
	if met {
		return
	}
	far := sideDown
	if len(qu) == 0 {
		far = sideUp
	}
	d := n.newComponent()
	c.links, d.links = partition(c.links, d.links, func(l *link) bool { return l.mark == far })
	c.flows, d.flows = partition(c.flows, d.flows, func(f *Flow) bool { return f.lup.mark == far })
	for _, l := range d.links {
		l.comp = d
	}
}

// partition moves the members of from that far picks to the end of to,
// and returns both, each in its order.
//
//lint:hotpath a split's two filters
func partition[T any](from, to []T, far func(T) bool) ([]T, []T) {
	kept := from[:0]
	for _, x := range from {
		if far(x) {
			to = append(to, x)
		} else {
			kept = append(kept, x)
		}
	}
	clear(from[len(kept):])
	return kept, to
}

// explore pops a link off q, the frontier of the side marked side, and
// queues its unmarked neighbours. It reports whether one carries the
// other side's mark: the sides have met.
//
//lint:hotpath one step of the split search
func explore(q []*link, side, other uint64) ([]*link, bool) {
	l := q[len(q)-1]
	q = q[:len(q)-1]
	for _, f := range l.flows {
		nb := f.ldown
		if nb == l {
			nb = f.lup
		}
		switch nb.mark {
		case side:
		case other:
			return q, true
		default:
			nb.mark = side
			q = append(q, nb)
		}
	}
	return q, false
}

// newComponent takes an empty component off the free list, or makes one.
//
//lint:hotpath a component starts or splits
func (n *Network) newComponent() *component {
	if k := len(n.spareComps) - 1; k >= 0 {
		c := n.spareComps[k]
		n.spareComps = n.spareComps[:k]
		return c
	}
	return new(component)
}

// freeComponent empties c onto the free list.
//
//lint:hotpath a component empties or is merged away
func (n *Network) freeComponent(c *component) {
	clear(c.links)
	clear(c.flows)
	c.links, c.flows = c.links[:0], c.flows[:0]
	n.spareComps = append(n.spareComps, c)
}

// at returns the index of x's key in xs, sorted by key, or where it goes.
//
//lint:hotpath every insertion and removal
func at[T keyed](xs []T, x T) int {
	i, _ := slices.BinarySearchFunc(xs, x, func(a, b T) int { return a.key() - b.key() })
	return i
}

// insertSorted and removeSorted keep xs sorted by key.
//
//lint:hotpath every join
func insertSorted[T keyed](xs []T, x T) []T { return slices.Insert(xs, at(xs, x), x) }

//lint:hotpath every leave
func removeSorted[T keyed](xs []T, x T) []T {
	i := at(xs, x)
	return slices.Delete(xs, i, i+1)
}

// sortByKey sorts xs by key: the full pass's canonical order.
//
//lint:hotpath every component of every full pass
func sortByKey[T keyed](xs []T) {
	slices.SortFunc(xs, func(a, b T) int { return a.key() - b.key() })
}

// mergeSorted merges src into dst, both sorted by key, from the back: each
// element moves once, and nothing is allocated once dst has grown.
//
//lint:hotpath a merge, and the apply of a pass over two components
func mergeSorted[T keyed](dst, src []T) []T {
	i, j := len(dst)-1, len(src)-1
	dst = append(dst, src...)
	for k := len(dst) - 1; j >= 0; k-- {
		if i >= 0 && dst[i].key() > src[j].key() {
			dst[k], i = dst[i], i-1
		} else {
			dst[k], j = src[j], j-1
		}
	}
	return dst
}
