"""Every collected test has a short, one-line node id.

A parametrization without ``ids`` takes its id from its values, so a test whose
parameters hold a message line is renamed whenever the message changes, and
tools that keep test names one per line, truncated at 100 characters, see one
test removed and another added. A newline in a parameter appears in the id as
the two characters ``\\n``, and is refused in that form too.
"""

MAX_NODE_ID = 100


def test_every_node_id_is_one_short_line(request):
    bad = [
        item.nodeid
        for item in request.session.items
        if len(item.nodeid) > MAX_NODE_ID or "\n" in item.nodeid or "\\n" in item.nodeid
    ]
    assert bad == []
