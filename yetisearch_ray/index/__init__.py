from .postings import encode_postings, decode_postings
from .build import build_index, IndexConfig
from .manifest import Manifest

__all__ = [
    "encode_postings",
    "decode_postings",
    "build_index",
    "IndexConfig",
    "Manifest",
]
