package sqlx

import (
	"strings"
	"testing"
)

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a, b FROM t WHERE a >= 10.5 AND b <> 'x''y'")
	if err != nil {
		t.Fatalf("tokenize: %v", err)
	}
	want := []struct {
		kind TokenKind
		text string
	}{
		{TokKeyword, "SELECT"}, {TokIdent, "a"}, {TokSymbol, ","}, {TokIdent, "b"},
		{TokKeyword, "FROM"}, {TokIdent, "t"}, {TokKeyword, "WHERE"},
		{TokIdent, "a"}, {TokSymbol, ">="}, {TokNumber, "10.5"},
		{TokKeyword, "AND"}, {TokIdent, "b"}, {TokSymbol, "<>"}, {TokString, "x'y"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d: got (%v, %q), want (%v, %q)", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestTokenizeLineComments(t *testing.T) {
	toks, err := Tokenize("SELECT a -- trailing comment\nFROM t")
	if err != nil {
		t.Fatalf("tokenize: %v", err)
	}
	if len(toks) != 4 {
		t.Fatalf("expected comment to be skipped, got %v", toks)
	}
}

func TestTokenizeNotEqualsAlias(t *testing.T) {
	toks, err := Tokenize("a != 3")
	if err != nil {
		t.Fatalf("tokenize: %v", err)
	}
	if toks[1].Text != "<>" {
		t.Errorf("!= should normalize to <>, got %q", toks[1].Text)
	}
}

func TestTokenizeKeywordsCaseInsensitive(t *testing.T) {
	toks, err := Tokenize("select From wHeRe")
	if err != nil {
		t.Fatalf("tokenize: %v", err)
	}
	for _, tok := range toks {
		if tok.Kind != TokKeyword {
			t.Errorf("%q should be a keyword", tok.Text)
		}
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "a @ b", "a # b"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) should fail", src)
		}
	}
}

func TestTokenizeUnderscoreIdents(t *testing.T) {
	toks, err := Tokenize("l_orderkey _x x9")
	if err != nil {
		t.Fatalf("tokenize: %v", err)
	}
	for _, tok := range toks {
		if tok.Kind != TokIdent {
			t.Errorf("%q should be an identifier, got %v", tok.Text, tok.Kind)
		}
	}
}

// TestTokenizeSignedExponent: a signed exponent is part of the number;
// an unsigned one still lexes as a number followed by an identifier, so
// statements that parsed before keep their meaning (1e5 is 1 AS e5).
func TestTokenizeSignedExponent(t *testing.T) {
	for src, want := range map[string][]string{
		"1e+06":   {"1e+06"},
		"2.5E-05": {"2.5E-05"},
		"1e5":     {"1", "e5"},
		"1e+":     {"1", "e", "+"},
	} {
		toks, err := Tokenize(src)
		if err != nil {
			t.Fatalf("tokenize %q: %v", src, err)
		}
		var got []string
		for _, tok := range toks {
			got = append(got, tok.Text)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("tokenize %q = %q, want %q", src, got, want)
		}
	}
}
