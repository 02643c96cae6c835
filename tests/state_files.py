"""Write a state file at a path; ``io.write_state_file`` writes to an open file."""

from coherence_kit.io import write_state_file


def write_state(path, kind, data) -> None:
    with open(path, "w") as fh:
        write_state_file(fh, kind, data)
