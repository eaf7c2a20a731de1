package netcache

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents whose test citations and paths must resolve.
// ROADMAP.md is left out on purpose: it names tests that are not written yet.
var citingDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"}

var (
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// A cited name, optionally followed by a regex group or a trailing '*'.
	citedNameRE = regexp.MustCompile(`(?:^|[^\w.])((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\([\w|]+\)|\*)?`)
	// A -bench or -run argument is a pattern: a name there is a prefix.
	benchFlagRE  = regexp.MustCompile(`-(?:test\.)?(?:bench|run)[ =]'?$`)
	inlineCodeRE = regexp.MustCompile("`([^`\n]+)`")
	citedPathRE  = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:internal|cmd|examples)/[\w./*-]*[\w*])`)
)

// testFuncs returns the name of every Test, Benchmark and Fuzz function
// declared in a _test.go file of the repository, bench/ included.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// citedPaths returns the internal/, cmd/ and examples/ paths a document
// quotes in inline code or in fenced code blocks.
func citedPaths(doc string) []string {
	var code []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced || strings.HasPrefix(line, "    ") {
			code = append(code, line)
			continue
		}
		for _, m := range inlineCodeRE.FindAllStringSubmatch(line, -1) {
			code = append(code, m[1])
		}
	}
	var paths []string
	for _, c := range code {
		for _, m := range citedPathRE.FindAllStringSubmatch(c, -1) {
			paths = append(paths, m[1])
		}
	}
	return paths
}

// pathExists resolves a cited path; "/..." means the directory and a '*'
// must match something.
func pathExists(p string) bool {
	matches, err := filepath.Glob(strings.TrimSuffix(p, "/..."))
	return err == nil && len(matches) > 0
}

// TestDocsCiteExistingNames holds the design and experiment documents to
// the code: every test, benchmark or fuzz target they name is declared in
// some _test.go (a trailing '*', a regex group such as
// BenchmarkPipeline(Sequential|Parallel), or a -bench or -run argument names
// a prefix or a pattern), and every internal/, cmd/ or examples/ path they
// quote as code exists.
func TestDocsCiteExistingNames(t *testing.T) {
	funcs := testFuncs(t)
	for _, name := range citingDocs {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		doc := string(raw)
		for _, m := range citedNameRE.FindAllStringSubmatchIndex(doc, -1) {
			cited, suffix := doc[m[2]:m[3]], ""
			if m[4] >= 0 {
				suffix = doc[m[4]:m[5]]
			}
			pattern := "^" + regexp.QuoteMeta(cited) + "$"
			switch {
			case suffix == "*" || benchFlagRE.MatchString(doc[max(0, m[2]-16):m[2]]):
				pattern = "^" + regexp.QuoteMeta(cited)
			case suffix != "":
				pattern = "^" + regexp.QuoteMeta(cited) + suffix + "$"
			}
			re := regexp.MustCompile(pattern)
			found := false
			for fn := range funcs {
				if re.MatchString(fn) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s cites %s%s, which no _test.go declares", name, cited, suffix)
			}
		}
		for _, p := range citedPaths(doc) {
			if !pathExists(p) {
				t.Errorf("%s quotes path %s, which does not exist", name, p)
			}
		}
	}
}

// TestDesignInventoryListsEveryPackage holds DESIGN.md §2 to `make loc`:
// every directory with non-test Go code outside bench/ is quoted there.
func TestDesignInventoryListsEveryPackage(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, inventory, _ := strings.Cut(string(design), "\n## 2.")
	inventory, _, _ = strings.Cut(inventory, "\n## 3.")
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == "." || !d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench" {
			return filepath.SkipDir
		}
		code, _ := filepath.Glob(filepath.Join(path, "*.go"))
		for _, f := range code {
			if !strings.HasSuffix(f, "_test.go") {
				if !strings.Contains(inventory, "`"+filepath.ToSlash(path)+"`") {
					t.Errorf("DESIGN.md §2 does not list %s", path)
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
