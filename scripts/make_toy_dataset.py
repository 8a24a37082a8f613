#!/usr/bin/env python3
"""Generate the synthetic rule-governed toy dataset (train/valid/test/rules).

    python3 scripts/make_toy_dataset.py data/toy

The rpje package is imported from the ``src/`` directory next to this script.
"""

import argparse
import os
import sys
from dataclasses import fields

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from rpje.synthetic import ToyConfig, generate, write_dataset  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", help="directory for train/valid/test/rules files")
    defaults = ToyConfig()
    for f in fields(ToyConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            parser.add_argument(flag, action="store_true", default=getattr(defaults, f.name))
        else:
            kind = int if f.type == "int" else float
            parser.add_argument(flag, type=kind, default=getattr(defaults, f.name))
    args = parser.parse_args()

    cfg = ToyConfig(**{f.name: getattr(args, f.name) for f in fields(ToyConfig)})
    data = generate(cfg)
    files = write_dataset(data, args.out_dir)
    print(f"train: {len(data.train)} triples -> {files['train']}")
    print(f"valid: {len(data.valid)} triples -> {files['valid']}")
    print(f"test:  {len(data.test)} triples -> {files['test']}")
    print(f"rules: {len(data.rules)} -> {files['rules']}")


if __name__ == "__main__":
    main()
