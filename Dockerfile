# Fleet gateway image: `repro gateway` fronting N engine shards per
# tenant, journaled under /var/lib/repro (docs/DEPLOYMENT.md).
#
#   docker build -t repro-fleet .
#   docker run --rm -p 7316:7316 -v repro-state:/var/lib/repro \
#       repro-fleet --tenant acme=s3cret --mesh 10x10 --shards 2
#
# Arguments after the image name are appended to the entrypoint, so
# tenants, topology and shard count are `docker run` flags.

FROM python:3.12-slim

# curl is for HEALTHCHECK only; keep the layer small.
RUN apt-get update \
    && apt-get install -y --no-install-recommends curl \
    && rm -rf /var/lib/apt/lists/*

WORKDIR /opt/repro
COPY pyproject.toml setup.py README.md ./
COPY src ./src
RUN pip install --no-cache-dir .

# Journals and snapshots live here; mount a volume or a container
# restart (or a shard failover) has nothing to recover from.
RUN mkdir -p /var/lib/repro
VOLUME /var/lib/repro

EXPOSE 7316

# /healthz is 200 only while every shard is alive and writable, so the
# container goes `unhealthy` the moment a primary dies or degrades.
HEALTHCHECK --interval=10s --timeout=3s --start-period=15s \
    CMD curl -fsS http://127.0.0.1:7316/healthz || exit 1

ENTRYPOINT ["repro", "gateway", "--host", "0.0.0.0", "--port", "7316", \
            "--state-dir", "/var/lib/repro"]
CMD []
