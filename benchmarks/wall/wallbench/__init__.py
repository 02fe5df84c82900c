"""Wall-clock benchmark of the shipped in-process engine.

``Cluster`` + ``BlobStore`` / ``AsyncBlobStore`` driven through four named
workloads; layers are measured from outside, by timing calls into their
public functions.  See ``benchmarks/wall/README.md``.
"""
