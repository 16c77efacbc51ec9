package core

import (
	"fmt"
	"slices"
	"testing"
)

// TestUnknownNamesByName guards the checker's name-keyed path, the one
// names outside the htmltoken vocabulary (NoSym) take: unknown
// elements in mixed case, longer than the tokenizer's 16-byte fold
// buffer, and spelled so that they keep evicting each other from its
// name cache (ZAAAZ, ZBBBZ and ZCCCZ share a slot), must nest, overlap,
// close and reach the end of the document as by-name matching has
// always made them, and repeated unknown attributes must still be
// reported. Unknown elements whose names are in the vocabulary (HREF,
// VALIGN) take the Sym path and must behave the same. The expected
// messages are recorded from a checker that matched every element and
// attribute by name.
func TestUnknownNamesByName(t *testing.T) {
	const body = `<FooWidget Zap=1 ZAP=2><barwidget>one</FOOWIDGET></barwidget>
<Custom-Element-Longer-Than-Sixteen>two<custom-element-longer-than-sixteen-b>three</CUSTOM-ELEMENT-LONGER-THAN-SIXTEEN></custom-element-longer-than-sixteen-b>
<zaaaz><ZBBBZ><zaaaz>four</ZAAAZ><zcccz>five</zbbbz></ZCCCZ></zaaaz>
<P><B><Widget>six</B> seven</widget></P>
<IMG SRC="a.gif" ALT="" WIDTH=1 HEIGHT=1 FOOBAR=1 foobar=2>
<A HREF="x.html" DataThing=1 DATATHING=2 data-thing-longer-than-16=3 DATA-THING-LONGER-THAN-16=4>eight</A>
<Href><valign>ten</HREF></valign>
<FooWidget><ZAAAZ><zbbbz>nine`
	want := []string{
		"9:1 unknown-element: unknown element <FOOWIDGET>",
		"9:18 repeated-attribute: attribute ZAP is repeated in element <FOOWIDGET>",
		"9:24 unknown-element: unknown element <BARWIDGET>",
		"9:0 unknown-element: unknown element <BARWIDGET>",
		"10:1 unknown-element: unknown element <CUSTOM-ELEMENT-LONGER-THAN-SIXTEEN>",
		"10:40 unknown-element: unknown element <CUSTOM-ELEMENT-LONGER-THAN-SIXTEEN-B>",
		"10:0 unknown-element: unknown element <CUSTOM-ELEMENT-LONGER-THAN-SIXTEEN-B>",
		"11:1 unknown-element: unknown element <ZAAAZ>",
		"11:8 unknown-element: unknown element <ZBBBZ>",
		"11:15 unknown-element: unknown element <ZAAAZ>",
		"11:34 unknown-element: unknown element <ZCCCZ>",
		"11:0 unknown-element: unknown element <ZCCCZ>",
		"12:4 physical-font: bad style - use logical markup (e.g. <STRONG>) rather than physical markup (<B>)",
		"12:7 unknown-element: unknown element <WIDGET>",
		"12:0 unknown-element: unknown element <WIDGET>",
		"13:42 unknown-attribute: unknown attribute \"FOOBAR\" for element <IMG>",
		"13:51 repeated-attribute: attribute foobar is repeated in element <IMG>",
		"14:18 unknown-attribute: unknown attribute \"DataThing\" for element <A>",
		"14:30 repeated-attribute: attribute DATATHING is repeated in element <A>",
		"14:42 unknown-attribute: unknown attribute \"data-thing-longer-than-16\" for element <A>",
		"14:70 repeated-attribute: attribute DATA-THING-LONGER-THAN-16 is repeated in element <A>",
		"15:1 unknown-element: unknown element <HREF>",
		"15:7 unknown-element: unknown element <VALIGN>",
		"15:0 unknown-element: unknown element <VALIGN>",
		"16:1 unknown-element: unknown element <FOOWIDGET>",
		"16:12 unknown-element: unknown element <ZAAAZ>",
		"16:19 unknown-element: unknown element <ZBBBZ>",
	}
	var got []string
	for _, m := range checkAll(t, valid(body), Options{}) {
		got = append(got, fmt.Sprintf("%d:%d %s: %s", m.Line, m.Col, m.ID, m.Text))
	}
	if !slices.Equal(got, want) {
		t.Errorf("messages:\n%q\nwant\n%q", got, want)
	}
}
