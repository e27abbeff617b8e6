package cap

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// TreeString renders the capability lineage forest — the structure
// grant/share/revoke operate on (§4.1) — for diagnostics and the
// tyche-sim dump. Roots are boot-time capabilities; indentation shows
// derivation.
func (s *Space) TreeString() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockAll()()
	var roots []*node
	s.eachOwner(func(_ OwnerID, nodes []*node) {
		for _, n := range nodes {
			if n.parent == nil {
				roots = append(roots, n)
			}
		}
	})
	slices.SortFunc(roots, func(a, b *node) int { return cmp.Compare(a.id, b.id) })
	var b strings.Builder
	for _, r := range roots {
		s.writeNode(&b, r, 0)
	}
	return b.String()
}

func (s *Space) writeNode(b *strings.Builder, n *node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	sealed := ""
	if s.isSealed(n.owner) {
		sealed = " (sealed)"
	}
	fmt.Fprintf(b, "n%d d%d%s %s %v [%v]", n.id, n.owner, sealed, n.kind, n.res, n.rights)
	if n.cleanup != CleanNone {
		fmt.Fprintf(b, " cleanup=%v", n.cleanup)
	}
	b.WriteByte('\n')
	for _, c := range n.children {
		s.writeNode(b, c, depth+1)
	}
}
