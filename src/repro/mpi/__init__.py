"""A miniature MPI on the simulation kernel.

Two aspects of the paper lean on MPI:

* §II-B: the NCAPI "follows a set of operations that resemble the MPI
  non-blocking interface" — load_tensor/get_result as isend/wait;
* §III / Fig. 3: ``MPIStream`` is a planned input source, citing the
  authors' "A data streaming model in MPI" (ExaMPI'15) [32].

This package provides the substrate the cluster layer runs on: a
rank-addressed communicator that prices the interconnect, and the
bounded streaming window that carries requests between ranks — both
on the deterministic DES clock with size-dependent transfer costs.
"""

from repro.mpi.comm import Communicator
from repro.mpi.stream import StreamWindow

__all__ = ["Communicator", "StreamWindow"]
