# Prints the output of `figures` with every timing-dependent table cell
# replaced by `~`, so that two runs compare equal iff every count, I/O
# figure and derived count ratio agrees:
#
#   awk -f ci/figures_mask.awk figures_all_small.txt > want.txt
#   awk -f ci/figures_mask.awk now.txt > got.txt && diff want.txt got.txt
#
# Masked: a cell holding a time (`12.3 µs`, `4.18 ms`, `2.40 s`), every
# `speedup` column, and every column but the first of a table whose title
# ends in "response time" (its ratio columns, `MTB/ETP` and `ratio`, are
# ratios of times). Cells are trimmed and separator rows collapsed, since
# a table's padding follows the width of its widest cell.

/^### / {
    response_time = ($0 ~ /response time$/)
    header = 1
    print
    next
}

/^\|[-|]+\|$/ {
    print "|-|"
    next
}

/^\|/ {
    n = split($0, cell, "|")
    line = "|"
    for (i = 2; i < n; i++) {
        c = cell[i]
        gsub(/^ +| +$/, "", c)
        if (header) {
            column[i] = c
        } else if (c ~ /^[0-9.]+ (s|ms|µs|ns)$/ || column[i] == "speedup" || (response_time && i > 2)) {
            c = "~"
        }
        line = line " " c " |"
    }
    header = 0
    print line
    next
}

{ print }
