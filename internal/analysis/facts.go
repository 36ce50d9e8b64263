package analysis

import (
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// Fact is a typed datum an analyzer attaches to a types.Object while
// analyzing one package, and reads back while analyzing a later package
// in dependency order. It mirrors
// golang.org/x/tools/go/analysis facts in miniature: facts are private
// to the analyzer that exported them, keyed by (object, concrete fact
// type), and — because the whole module is analyzed in one process —
// they are stored as live pointers instead of being gob-serialized.
//
// An analyzer that declares FactTypes is run over every package of the
// module (dependency order, imports first), not just the packages its
// Match accepts: that is what lets a check in a matched package see
// facts computed about its helper-package dependencies. Findings it
// reports while visiting a package outside its Match are discarded.
type Fact interface {
	// AFact marks the type as a fact. It is never called.
	AFact()
}

// ObjectFact pairs an object with one fact attached to it.
type ObjectFact struct {
	Object types.Object
	Fact   Fact
}

// factStore holds every fact exported during one RunResult, namespaced by
// analyzer so two analyzers can attach facts of coincidentally equal
// type names without collision.
type factStore struct {
	objects map[objectFactKey]Fact
}

type objectFactKey struct {
	a   *Analyzer
	obj types.Object
	t   reflect.Type
}

func newFactStore() *factStore {
	return &factStore{objects: map[objectFactKey]Fact{}}
}

// factType validates that fact is a non-nil pointer (so imports can
// copy into it) and returns its concrete type.
func factType(fact Fact) reflect.Type {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Ptr {
		panic(fmt.Sprintf("analysis: fact %T must be a pointer", fact))
	}
	return t
}

// declaresFactType enforces the x/tools contract that an analyzer may
// only use fact types it declared up front; the declaration is what
// makes the engine run the analyzer over every package.
func declaresFactType(a *Analyzer, t reflect.Type) bool {
	for _, ft := range a.FactTypes {
		if reflect.TypeOf(ft) == t {
			return true
		}
	}
	return false
}

func (s *factStore) exportObject(a *Analyzer, obj types.Object, fact Fact) {
	t := factType(fact)
	if !declaresFactType(a, t) {
		panic(fmt.Sprintf("analysis: analyzer %s exports undeclared fact type %v", a.Name, t))
	}
	if obj == nil {
		panic(fmt.Sprintf("analysis: analyzer %s exports fact on nil object", a.Name))
	}
	s.objects[objectFactKey{a, obj, t}] = fact
}

func (s *factStore) importObject(a *Analyzer, obj types.Object, fact Fact) bool {
	t := factType(fact)
	got, ok := s.objects[objectFactKey{a, obj, t}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}

// objectFacts returns every object fact exported by a, sorted by object
// position (then name, then fact type) so iteration over them is
// deterministic.
func (s *factStore) objectFacts(a *Analyzer) []ObjectFact {
	var out []ObjectFact
	keys := make([]objectFactKey, 0)
	for k := range s.objects {
		if k.a == a {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		ki, kj := keys[i], keys[j]
		if ki.obj.Pos() != kj.obj.Pos() {
			return ki.obj.Pos() < kj.obj.Pos()
		}
		if ki.obj.Name() != kj.obj.Name() {
			return ki.obj.Name() < kj.obj.Name()
		}
		return ki.t.String() < kj.t.String()
	})
	for _, k := range keys {
		out = append(out, ObjectFact{Object: k.obj, Fact: s.objects[k]})
	}
	return out
}

// depOrder sorts packages so every package follows the packages it
// imports (restricted to the given set). The order is deterministic:
// ties are broken by import path. Analyzing in this order is what makes
// fact import well-defined — by the time a package is visited, all of
// its module-internal dependencies have exported their facts.
func depOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		if _, dup := byPath[p.Path]; dup {
			continue
		}
		byPath[p.Path] = p
		paths = append(paths, p.Path)
	}
	sort.Strings(paths)
	var out []*Package
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		pkg, ok := byPath[path]
		if !ok || state[path] != 0 {
			return
		}
		state[path] = 1
		imps := pkg.Types.Imports()
		ipaths := make([]string, 0, len(imps))
		for _, imp := range imps {
			ipaths = append(ipaths, imp.Path())
		}
		sort.Strings(ipaths)
		for _, ip := range ipaths {
			visit(ip)
		}
		state[path] = 2
		out = append(out, pkg)
	}
	for _, p := range paths {
		visit(p)
	}
	return out
}

// moduleInternal reports whether path belongs to this module. The
// module path is recovered from the packages under analysis rather than
// go.mod so fixture packages loaded under fake p2psplice/... paths
// behave like module code.
func moduleInternal(modPath, path string) bool {
	return path == modPath || strings.HasPrefix(path, modPath+"/")
}
