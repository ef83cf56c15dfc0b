#!/usr/bin/env bash
# The public surface of every library crate under crates/, one door a
# line: `KIND PATH`, sorted by path. A door is a public module, type,
# trait, function, inherent method, field, variant, constant or static,
# listed at the path a caller names it by; an item defined in a private
# module is listed at its `pub use` (the one nearest its definition).
# Every other `pub use` is a second path to a door and is listed as
# `use PATH -> TARGET`. A count table per crate ends the listing.
# docs/API.txt is this script's output; ROADMAP asks every PR to report
# its delta beside `scripts/loc.sh`'s.
#
#   bash scripts/api.sh > docs/API.txt
#
# It reads the JSON rustdoc writes (`cargo +nightly rustdoc … --output-format
# json`), whose layout changes between nightlies: it refuses any
# `format_version` but the one the walk below is written against.
set -euo pipefail
cd "$(dirname "$0")/.."

FORMAT_VERSION=57
target=target/api

crates=$(cargo metadata --no-deps --format-version 1 --offline | jq -r '
    .packages[]
    | select(.manifest_path | test("/crates/[^/]+/Cargo.toml$"))
    | select(any(.targets[]; .kind | index("lib")))
    | .name' | LC_ALL=C sort)

listing=$(mktemp)
trap 'rm -f "$listing"' EXIT

for crate in $crates; do
    cargo +nightly rustdoc -q --offline -p "$crate" --lib --target-dir "$target" \
        -- -Z unstable-options --output-format json --document-hidden-items
    json="$target/doc/${crate//-/_}.json"
    found=$(jq '.format_version' "$json")
    if [ "$found" != "$FORMAT_VERSION" ]; then
        echo "api.sh: $json has rustdoc JSON format_version $found; this walk reads $FORMAT_VERSION" >&2
        exit 1
    fi
    jq -r '
        .index as $ix | .paths as $paths
        | def it($id): $ix[$id | tostring];
          def kind: .inner | keys[0];
          def kindname: {type_alias: "type", assoc_const: "constant",
                         assoc_type: "type"}[kind] // kind;
          # Every public entry of a public module, walked from the root:
          # items where they are defined, `pub use`s where they point.
          def entries($id; $path):
            it($id).inner.module.items[] as $c | it($c)
            | select(.visibility == "public")
            | if kind == "use" then
                {path: "\($path)::\(.inner.use.name)", id: .inner.use.id, use: true}
              elif kind == "module" then
                {path: "\($path)::\(.name)", id: $c, use: false},
                entries($c; "\($path)::\(.name)")
              else {path: "\($path)::\(.name)", id: $c, use: false}
              end;
          # The members of a type listed at $path: public fields,
          # variants, and the public items of its inherent impls.
          def members($id; $path):
            it($id) as $t
            | ($t.inner.struct // $t.inner.enum // $t.inner.union // {}) as $body
            | ( ( ($body.kind | objects | .plain.fields // .tuple), $body.fields
                  | values | .[]
                  | select(. != null) | it(.)
                  | select(.visibility == "public")
                  | "field \($path)::\(.name)" ),
                ( $body.variants[]? | it(.) | "variant \($path)::\(.name)" ),
                ( $body.impls[]? | it(.)
                  | select(.inner.impl.trait == null and .inner.impl.blanket_impl == null)
                  | .inner.impl.items[] | it(.)
                  | select(.visibility == "public")
                  | (if kind == "function" then "method" else kindname end) as $k
                  | "\($k) \($path)::\(.name)" ) );
          def place($id; $path):
            it($id) as $i | "\($i | kindname) \($path)", members($id; $path);

          [entries(.root; it(.root).name)] as $all
          | ($all | map(select(.use | not))) as $defined
          | ($defined | map(.id)) as $reached
          # An item defined in a private module is placed at the deepest
          # of its public `use` paths; its other `use`s are second paths.
          | ($all | map(select(.use and (it(.id) != null)
                               and (.id as $i | $reached | index($i) | not)))
                  | group_by(.id)
                  | map(sort_by([-(.path | split("::") | length), .path])[0])) as $adopted
          | (($defined + $adopted) | map({key: (.id | tostring), value: .path})
              | from_entries) as $at
          | ( ($defined + $adopted)[] | place(.id; .path) ),
            ( $all[] | select(.use) | select(. as $u | $adopted | index([$u]) | not)
              | ($at[.id | tostring]
                 // ($paths[.id | tostring].path // ["?"] | join("::"))) as $to
              | "use \(.path) -> \($to)" )
    ' "$json"
done > "$listing"

# A second path is a `use` of an item its own crate lists elsewhere
# (a root re-export beside the `pub mod` that defines it).
LC_ALL=C sort -t ' ' -k 2,2 -k 1,1 "$listing" | awk '
    { print; split($2, p, "::"); crate = p[1] }
    !(crate in seen) { seen[crate] = 1; names[++n] = crate }
    $1 != "use" { doors[crate]++; next }
    { uses[crate]++; split($4, t, "::"); if (t[1] == crate) second[crate]++ }
    END {
        printf "\n| crate | doors | re-exports | second paths |\n|---|---:|---:|---:|\n"
        for (i = 1; i <= n; i++) {
            c = names[i]
            printf "| `%s` | %d | %d | %d |\n", c, doors[c], uses[c], second[c]
            d += doors[c]; u += uses[c]; s += second[c]
        }
        printf "| *total* | *%d* | *%d* | *%d* |\n", d, u, s
    }'
