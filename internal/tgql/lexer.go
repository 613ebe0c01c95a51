// Package tgql implements a small temporal graph query language over the
// GraphTempo framework — the "interactive exploration framework" the
// paper's conclusion announces as future work, in the textual style of the
// temporal query languages its related-work section surveys (T-GQL,
// TGraph's algebra).
//
// One statement per query:
//
//	STATS
//	AGG DIST gender, publications ON UNION(t0, t1)
//	AGG ALL gender ON PROJECT 2000..2005 WHERE publications > 4
//	AGG DIST gender ON POINT t0 MEASURE AVG(publications)
//	EVOLVE DIST gender FROM 2000..2009 TO 2010 WHERE publications > 4
//	EXPLORE STABILITY BY gender EDGE 'f' -> 'f'
//	        SEMANTICS INTERSECTION EXTEND NEW K 62
//	EXPLORE GROWTH BY gender EDGE 'f' -> 'f' TUNE 3
//
// Keywords are case-insensitive; attribute values may be quoted ('f',
// "18-24") or bare identifiers; intervals are single time-point labels or
// label..label ranges.
package tgql

import (
	"strings"
	"unicode"

	"repro/internal/plan"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString // quoted value
	tokLParen
	tokRParen
	tokComma
	tokArrow // ->
	tokRange // ..
	tokOp    // = != < <= > >=
	tokInvalid
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer tokenizes one query string.
type lexer struct {
	in  string
	pos int
}

func (l *lexer) error(pos int, format string, args ...interface{}) error {
	return plan.PosErrorf(l.in, pos, "", format, args...)
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.in) && unicode.IsSpace(rune(l.in[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.in) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.in[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case c == ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case c == ',':
		l.pos++
		return token{tokComma, ",", start}, nil
	case c == '\'' || c == '"':
		quote := c
		l.pos++
		var b strings.Builder
		for l.pos < len(l.in) && l.in[l.pos] != quote {
			b.WriteByte(l.in[l.pos])
			l.pos++
		}
		if l.pos >= len(l.in) {
			return token{}, l.error(start, "unterminated string")
		}
		l.pos++
		return token{tokString, b.String(), start}, nil
	case c == '-':
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '>' {
			l.pos += 2
			return token{tokArrow, "->", start}, nil
		}
		return token{}, l.error(start, "unexpected '-' (write -> for edges, quote values containing '-')")
	case c == '.':
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '.' {
			l.pos += 2
			return token{tokRange, "..", start}, nil
		}
		return token{}, l.error(start, "unexpected '.'")
	case c == '=':
		l.pos++
		return token{tokOp, "=", start}, nil
	case c == '!':
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '=' {
			l.pos += 2
			return token{tokOp, "!=", start}, nil
		}
		return token{}, l.error(start, "unexpected '!'")
	case c == '<' || c == '>':
		op := string(c)
		l.pos++
		if l.pos < len(l.in) && l.in[l.pos] == '=' {
			op += "="
			l.pos++
		}
		return token{tokOp, op, start}, nil
	case isIdentByte(c):
		var b strings.Builder
		for l.pos < len(l.in) && isIdentByte(l.in[l.pos]) {
			// Stop before a ".." range operator; a single '.' is part of
			// the identifier only if not followed by another '.'.
			if l.in[l.pos] == '.' {
				if l.pos+1 < len(l.in) && l.in[l.pos+1] == '.' {
					break
				}
			}
			b.WriteByte(l.in[l.pos])
			l.pos++
		}
		return token{tokIdent, b.String(), start}, nil
	default:
		return token{}, l.error(start, "unexpected character %q", c)
	}
}

func isIdentByte(c byte) bool {
	return c == '_' || c == '#' || c == '.' ||
		(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// lexAll tokenizes the whole input.
func lexAll(in string) ([]token, error) {
	l := &lexer{in: in}
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
