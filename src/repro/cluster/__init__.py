"""Cluster substrate: nodes, Slurm-style scheduler, Jupyter, storage."""

from repro.cluster.jupyter import JupyterService, JupyterSession
from repro.cluster.nodes import ComputeNode, ManagementNode, NodePool
from repro.cluster.slurm import Job, JobState, SlurmScheduler
from repro.cluster.storage import ParallelFilesystem, ProjectVolume

__all__ = [
    "ComputeNode",
    "NodePool",
    "ManagementNode",
    "SlurmScheduler",
    "Job",
    "JobState",
    "JupyterService",
    "JupyterSession",
    "ParallelFilesystem",
    "ProjectVolume",
]
