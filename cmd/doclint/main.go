// Command doclint enforces the repository's documentation floor. In
// its default (Go) mode every package under the given roots must carry
// a package-level doc comment ("// Package foo ..." or "// Command foo
// ..." immediately above the package clause) in at least one non-test
// file, and — for roots under internal/ — every exported type,
// function and method must carry its own doc comment. With -md it
// instead lints markdown documentation: every relative link must
// resolve to an existing file, every #fragment must match a heading
// anchor (GitHub slug rules) in the target document, and every code
// reference to a package under ./internal must name a symbol that
// exists (see staleRefs). Both modes are wired into `make check` via the
// docs target, so an undocumented export, a dead doc link or a stale
// code reference fails CI.
//
// Usage:
//
//	doclint ./internal ./cmd ./examples
//	doclint -md README.md DESIGN.md EXPERIMENTS.md docs
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"unicode"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "-md" {
		os.Exit(lintMarkdown(args[1:]))
	}
	if len(args) == 0 {
		args = []string{"./internal", "./cmd"}
	}
	exit := 0
	for _, root := range args {
		dirs, err := packageDirs(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(2)
		}
		// The exported-declaration floor applies to the library packages
		// under internal/; command mains and examples only need the
		// package comment.
		decls := strings.Contains(filepath.ToSlash(root), "internal")
		for _, d := range dirs {
			ok, err := hasPackageDoc(d)
			if err != nil {
				fmt.Fprintln(os.Stderr, "doclint:", err)
				os.Exit(2)
			}
			if !ok {
				fmt.Fprintf(os.Stderr, "doclint: %s: no package doc comment in any non-test file\n", d)
				exit = 1
			}
			if decls {
				missing, err := undocumentedExports(d)
				if err != nil {
					fmt.Fprintln(os.Stderr, "doclint:", err)
					os.Exit(2)
				}
				for _, m := range missing {
					fmt.Fprintln(os.Stderr, "doclint:", m)
					exit = 1
				}
			}
		}
	}
	os.Exit(exit)
}

// packageDirs returns every directory under root holding at least one
// non-test Go file, sorted for stable output.
func packageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		seen[filepath.Dir(path)] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasPackageDoc reports whether any non-test file in dir attaches a
// non-empty doc comment to its package clause. Parsing stops at the
// package clause — doclint never type-checks, so it stays fast and
// dependency-free.
func hasPackageDoc(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return false, err
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true, nil
		}
	}
	return false, nil
}

// undocumentedExports lists every exported type, function and method in
// dir's non-test files that lacks a doc comment, as ready-to-print
// "file:line: ..." messages. Methods count when both the method name
// and the receiver's base type are exported (a method on an unexported
// type is not reachable API). Grouped type declarations accept either a
// group comment or per-spec comments.
func undocumentedExports(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Doc != nil {
					continue
				}
				kind := "function"
				if d.Recv != nil {
					recv := receiverType(d.Recv)
					if recv == "" || !ast.IsExported(recv) {
						continue
					}
					kind = "method (" + recv + ")"
				}
				out = append(out, fmt.Sprintf("%s: exported %s %s has no doc comment",
					fset.Position(d.Pos()), kind, d.Name.Name))
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					if d.Doc != nil || ts.Doc != nil || ts.Comment != nil {
						continue
					}
					out = append(out, fmt.Sprintf("%s: exported type %s has no doc comment",
						fset.Position(ts.Pos()), ts.Name.Name))
				}
			}
		}
	}
	return out, nil
}

// receiverType returns the base type name of a method receiver
// (stripping pointers and type parameters), or "" if it has no name.
func receiverType(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// --- markdown mode ---

// mdLink matches inline markdown links and images: [text](target) /
// ![alt](target). Footnote-style definitions are not used in this
// repository's docs.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// lintMarkdown checks every markdown file (or directory of them) in
// args: relative link targets must exist on disk, and #fragments must
// match a heading anchor of the target document. Absolute URLs
// (http/https/mailto) are skipped — CI runs offline. Returns the
// process exit code.
func lintMarkdown(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "doclint: -md needs markdown files or directories")
		return 2
	}
	var files []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			return 2
		}
		if !st.IsDir() {
			files = append(files, a)
			continue
		}
		err = filepath.WalkDir(a, func(path string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() && strings.HasSuffix(path, ".md") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			return 2
		}
	}
	sort.Strings(files)

	syms, err := packageSymbols("internal")
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		return 2
	}
	exit := 0
	anchorCache := map[string]map[string]bool{}
	for _, f := range files {
		for _, msg := range lintMarkdownFile(f, anchorCache, syms) {
			fmt.Fprintln(os.Stderr, "doclint:", msg)
			exit = 1
		}
	}
	return exit
}

// lintMarkdownFile checks one document's links, using (and filling)
// the per-target anchor cache, and its code references against syms.
func lintMarkdownFile(path string, anchors map[string]map[string]bool, syms map[string]map[string]bool) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{err.Error()}
	}
	var msgs []string
	for ln, line := range strippedLines(string(data)) {
		for _, ref := range staleRefs(line, syms) {
			msgs = append(msgs, fmt.Sprintf("%s:%d: code reference %q names no symbol under internal/", path, ln+1, ref))
		}
		for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue
			}
			file, frag, _ := strings.Cut(target, "#")
			resolved := path
			if file != "" {
				resolved = filepath.Join(filepath.Dir(path), file)
				if _, err := os.Stat(resolved); err != nil {
					msgs = append(msgs, fmt.Sprintf("%s:%d: broken link %q: %s does not exist", path, ln+1, target, resolved))
					continue
				}
			}
			if frag == "" {
				continue
			}
			if !strings.HasSuffix(resolved, ".md") {
				// Fragments into non-markdown targets (e.g. source files)
				// are not checkable; the file-exists check above stands.
				continue
			}
			set, err := headingAnchors(resolved, anchors)
			if err != nil {
				msgs = append(msgs, err.Error())
				continue
			}
			if !set[strings.ToLower(frag)] {
				msgs = append(msgs, fmt.Sprintf("%s:%d: broken anchor %q: no heading in %s slugs to #%s", path, ln+1, target, resolved, frag))
			}
		}
	}
	return msgs
}

// codeSpan matches an inline code span; codeRef matches one that opens
// with pkg.Name, Name capitalised so file names (`trace.mtrc`) and
// metric names (`vm.touch_ns`) stay out, optionally continued by
// .Member segments or ended by * (a name prefix, as in `obs.Ev*`).
var (
	codeSpan = regexp.MustCompile("`[^`]+`")
	codeRef  = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*(?:\.[A-Za-z_]\w*)*)(\*?)`)
)

// staleRefs returns the code references on one line that name a
// package under internal/ but a symbol that package does not declare.
// A reference resolves when each dotted segment after the package is a
// symbol of it (see packageSymbols); with a trailing *, the last
// segment need only prefix one. Spans naming other packages (`rand.New`,
// `math.MaxUint64`) are not checked.
func staleRefs(line string, syms map[string]map[string]bool) []string {
	var out []string
	for _, span := range codeSpan.FindAllString(line, -1) {
		m := codeRef.FindStringSubmatch(strings.Trim(span, "`"))
		if m == nil || syms[m[1]] == nil {
			continue
		}
		pkg, segs, prefix := syms[m[1]], strings.Split(m[2], "."), m[3] == "*"
		ok := true
		for i, seg := range segs {
			if prefix && i == len(segs)-1 {
				ok = ok && hasPrefixed(pkg, seg)
			} else {
				ok = ok && pkg[seg]
			}
		}
		if !ok {
			out = append(out, m[0])
		}
	}
	return out
}

func hasPrefixed(set map[string]bool, prefix string) bool {
	for name := range set {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// packageSymbols maps each package directory directly under root to
// the names a doc may cite from it: top-level declarations, method,
// struct field and interface method names from its non-test files
// (so `vm.Touch` resolves to AddressSpace.Touch), and the functions of
// its test files.
func packageSymbols(root string) (map[string]map[string]bool, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return nil, err
		}
		set := map[string]bool{}
		for _, path := range files {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return nil, err
			}
			test := strings.HasSuffix(path, "_test.go")
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					set[d.Name.Name] = true
				case *ast.GenDecl:
					if !test {
						addSpecNames(set, d)
					}
				}
			}
		}
		if len(set) > 0 {
			out[e.Name()] = set
		}
	}
	return out, nil
}

// addSpecNames adds a declaration's names to set, with the fields and
// methods of the struct and interface types it declares.
func addSpecNames(set map[string]bool, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		switch sp := spec.(type) {
		case *ast.ValueSpec:
			for _, n := range sp.Names {
				set[n.Name] = true
			}
		case *ast.TypeSpec:
			set[sp.Name.Name] = true
			var fields *ast.FieldList
			switch t := sp.Type.(type) {
			case *ast.StructType:
				fields = t.Fields
			case *ast.InterfaceType:
				fields = t.Methods
			}
			if fields == nil {
				continue
			}
			for _, fl := range fields.List {
				for _, n := range fl.Names {
					set[n.Name] = true
				}
			}
		}
	}
}

// strippedLines splits a document into lines with fenced code blocks
// blanked out, so example links inside ``` fences are not linted.
func strippedLines(doc string) []string {
	lines := strings.Split(doc, "\n")
	fenced := false
	for i, ln := range lines {
		if strings.HasPrefix(strings.TrimSpace(ln), "```") {
			fenced = !fenced
			lines[i] = ""
			continue
		}
		if fenced {
			lines[i] = ""
		}
	}
	return lines
}

// headingAnchors returns the set of GitHub-style anchor slugs for a
// markdown file's headings, memoised in cache.
func headingAnchors(path string, cache map[string]map[string]bool) (map[string]bool, error) {
	if set, ok := cache[path]; ok {
		return set, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	for _, line := range strippedLines(string(data)) {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "#") {
			continue
		}
		text := strings.TrimLeft(trimmed, "#")
		if text == trimmed || (text != "" && text[0] != ' ') {
			continue // not a heading (e.g. "#!/bin/sh" or a bare "#foo")
		}
		slug := slugify(strings.TrimSpace(text))
		// GitHub dedupes repeated headings with -1, -2, ... suffixes.
		if set[slug] {
			for i := 1; ; i++ {
				s := fmt.Sprintf("%s-%d", slug, i)
				if !set[s] {
					slug = s
					break
				}
			}
		}
		set[slug] = true
	}
	cache[path] = set
	return set, nil
}

// slugify reduces a heading to its GitHub anchor: lowercase, spaces to
// hyphens, everything but letters, digits, hyphens and underscores
// dropped (inline code backticks and punctuation vanish).
func slugify(s string) string {
	s = strings.ToLower(s)
	var b strings.Builder
	for _, r := range s {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_',
			r >= 'a' && r <= 'z',
			r >= '0' && r <= '9',
			r > 127 && (unicode.IsLetter(r) || unicode.IsDigit(r)):
			b.WriteRune(r)
		}
	}
	return b.String()
}
