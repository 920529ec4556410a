"""Round trip through the on-disk formats and the command-line front
end: write a graph as TSV files, embed it via the CLI entry point, and
read the embedding file back into numpy.

All three inputs are tab-separated text; the embedding file prints
vectors at 17 significant digits, so reading it back is lossless and
repeated runs are byte-identical; the demo exits 1 if a rerun is not.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from semgraph import read_embeddings
from semgraph.cli import main

work = Path(tempfile.mkdtemp(prefix="semgraph-demo-"))
edges = work / "edges.tsv"
attrs = work / "attrs.tsv"
out = work / "embedding.tsv"

edges.write_text("a\tb\nb\tc\nc\ta\nc\td\nd\te\ne\tf\nf\td\n")
attrs.write_text("a\tsweet\nb\tsweet\nc\tsweet\n"
                 "d\tsour\ne\tsour\nf\tsour\nc\tsour\n")

code = main(["embed", "--edges", str(edges), "--attrs", str(attrs),
             "--dim", "4", "--out", str(out)])
print(f"semgraph embed exited {code}; wrote {out}")

emb = read_embeddings(str(out))
print(f"{emb.entity_count} entities x {emb.dim} dims")
for tag, vec in emb.rows:
    print(f"  {tag:<8} " + " ".join(f"{v:+.3f}" for v in vec))

# identical invocation, identical bytes
again = work / "again.tsv"
main(["embed", "--edges", str(edges), "--attrs", str(attrs),
      "--dim", "4", "--out", str(again)])
identical = out.read_bytes() == again.read_bytes()
print("byte-identical rerun:", identical)

dist = np.linalg.norm(emb.vectors[:6] - emb.vectors[6], axis=1)
print("distance to 'sweet' from each node:",
      np.array2string(dist, precision=3))
if not identical:
    sys.exit(1)
