package verify

import (
	"regexp"
	"testing"
)

// The regular-expression site normalizer the hand-written one replaced,
// kept as its reference.
var (
	refSiteIter = regexp.MustCompile(` i=-?\d+( noop)?$`)
	refSiteGE   = regexp.MustCompile(`>=-?\d+`)
	refSiteElem = regexp.MustCompile(`\[-?\d+(,-?\d+)*\]`)
	refSiteVer  = regexp.MustCompile(`\.v\d+(\.c\d+)?`)
)

func refSite(tag string) string {
	tag = refSiteIter.ReplaceAllString(tag, "")
	tag = refSiteGE.ReplaceAllString(tag, ">=*")
	tag = refSiteElem.ReplaceAllString(tag, "[*]")
	tag = refSiteVer.ReplaceAllString(tag, ".v*")
	return tag
}

var siteSeeds = []string{
	"",
	"wait_PC(3,1) i=17",
	"wait_PC(3,1) i=-4 noop",
	"key:wait A[3]>=2",
	"key:wait A[-3,14]>=-2 i=9",
	"full:wait B.v12.c3[4,5] i=2 noop",
	"x.v3.c[1] i=1 i=2",
	"x i=5 noop noop",
	"x i=--5",
	"x i=5noop",
	" i=5",
	"A[1,]>=>=7[,2][3]]..v.v9.c.c1",
	"S2 wait_stmt(S1,1)>=40",
	"step>=- >=-1 [-] [-1,-2,3]",
	"\xff[1]\xfe>=2 i=3",
	"é.v1.c2ü[7]",
}

func TestSiteNormalizerMatchesRegexps(t *testing.T) {
	for _, tag := range siteSeeds {
		if got, want := site(tag), refSite(tag); got != want {
			t.Errorf("site(%q) = %q, regexps give %q", tag, got, want)
		}
	}
}

func FuzzSiteNormalizer(f *testing.F) {
	for _, tag := range siteSeeds {
		f.Add(tag)
	}
	f.Fuzz(func(t *testing.T, tag string) {
		got, want := site(tag), refSite(tag)
		if got != want {
			t.Errorf("site(%q) = %q, regexps give %q", tag, got, want)
		}
	})
}
