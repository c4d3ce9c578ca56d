package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked module package.
type Package struct {
	Path  string // import path ("repro/internal/ce")
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is the fully loaded and type-checked module under analysis.
type Module struct {
	Path string // module path from go.mod
	Root string // directory containing go.mod
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path

	accessors   map[accessorKey]string // lazy snapshot-accessor cache
	fpFacts     *failpointFacts        // lazy failpoint-registry cache
	fpFactsDone bool
}

// Lookup returns the loaded package with the given import path, or nil.
func (m *Module) Lookup(importPath string) *Package {
	for _, p := range m.Pkgs {
		if p.Path == importPath {
			return p
		}
	}
	return nil
}

// Load parses and type-checks every non-test package of the module rooted
// at (or above) dir, resolving stdlib imports from GOROOT source — no
// toolchain shellout, no external dependencies. Test files are excluded:
// the rules pin production invariants, and go vet already covers tests.
func Load(dir string) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	m := &Module{Path: modPath, Root: root, Fset: token.NewFileSet()}

	// Discover package directories (skip hidden, _-prefixed, testdata, and
	// vendor trees, and nested modules — the same set the go tool ignores).
	dirs := map[string]string{} // import path -> dir
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); p != root && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		pkgDir := filepath.Dir(p)
		rel, rerr := filepath.Rel(root, pkgDir)
		if rerr != nil {
			return rerr
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		dirs[ip] = pkgDir
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Parse every package.
	parsed := map[string]*Package{}
	for ip, pkgDir := range dirs {
		ents, err := os.ReadDir(pkgDir)
		if err != nil {
			return nil, err
		}
		pkg := &Package{Path: ip, Dir: pkgDir}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			// Keep only the files the go tool builds for this GOOS and
			// GOARCH (file-name suffixes and //go:build lines).
			if ok, err := build.Default.MatchFile(pkgDir, name); err != nil {
				return nil, err
			} else if !ok {
				continue
			}
			f, err := parser.ParseFile(m.Fset, filepath.Join(pkgDir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", filepath.Join(pkgDir, name), err)
			}
			pkg.Files = append(pkg.Files, f)
		}
		if len(pkg.Files) > 0 {
			parsed[ip] = pkg
		}
	}

	// Type-check in dependency order. Module-internal imports resolve to
	// our own checked packages; everything else comes from the GOROOT
	// source importer (cached across imports).
	std := importer.ForCompiler(m.Fset, "source", nil)
	checked := map[string]*types.Package{}
	checking := map[string]bool{}
	var check func(ip string) (*types.Package, error)
	check = func(ip string) (*types.Package, error) {
		if p, ok := checked[ip]; ok {
			return p, nil
		}
		if checking[ip] {
			return nil, fmt.Errorf("import cycle through %s", ip)
		}
		checking[ip] = true
		defer func() { checking[ip] = false }()
		pkg := parsed[ip]
		imp := importerFunc(func(path string) (*types.Package, error) {
			if _, ok := parsed[path]; ok {
				return check(path)
			}
			return std.Import(path)
		})
		conf := types.Config{Importer: imp}
		pkg.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Instances:  map[*ast.Ident]types.Instance{},
		}
		tp, err := conf.Check(ip, m.Fset, pkg.Files, pkg.Info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", ip, err)
		}
		pkg.Types = tp
		checked[ip] = tp
		return tp, nil
	}

	var ips []string
	for ip := range parsed {
		ips = append(ips, ip)
	}
	sort.Strings(ips)
	for _, ip := range ips {
		if _, err := check(ip); err != nil {
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, parsed[ip])
	}
	return m, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			mp := modulePath(string(data))
			if mp == "" {
				return "", "", fmt.Errorf("%s/go.mod has no module directive", d)
			}
			return d, mp, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found at or above %s", abs)
		}
		d = parent
	}
}

// modulePath extracts the module path from go.mod content.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest
			}
		}
	}
	return ""
}
